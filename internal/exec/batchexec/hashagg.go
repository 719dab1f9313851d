package batchexec

import (
	"context"

	"apollo/internal/encoding"
	"apollo/internal/exec"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/vector"
)

// HashAgg is the batch-mode hash aggregation of §5, including scalar
// aggregation (no group-by), DISTINCT aggregates, and spilling: when the
// memory grant is exhausted, rows belonging to not-yet-seen groups are
// hash-partitioned to spill files and aggregated partition by partition after
// the input is consumed (hybrid hash aggregation), so memory pressure
// degrades throughput instead of failing the query.
//
// The grouping state lives in an aggTable so that ParallelAgg can run one
// table per exchange worker and merge the partial states afterwards.
type HashAgg struct {
	In      Operator
	GroupBy []int // input column indexes
	Names   []string
	Aggs    []exec.AggSpec // Arg exprs bound to the input schema

	Tracker    *Tracker
	SpillStore *storage.Store

	schema *sqltypes.Schema
	out    *Values
	table  *aggTable
}

// NewHashAgg builds a batch aggregation. Group-by keys are input columns;
// aggregate arguments are expressions over the input schema.
func NewHashAgg(in Operator, groupBy []int, names []string, aggs []exec.AggSpec) *HashAgg {
	return &HashAgg{In: in, GroupBy: groupBy, Names: names, Aggs: aggs,
		schema: aggOutputSchema(in.Schema(), groupBy, names, aggs)}
}

// aggOutputSchema is the output layout shared by HashAgg and ParallelAgg:
// group-by keys first, then one column per aggregate.
func aggOutputSchema(in *sqltypes.Schema, groupBy []int, names []string, aggs []exec.AggSpec) *sqltypes.Schema {
	cols := make([]sqltypes.Column, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		c := in.Cols[g]
		cols = append(cols, sqltypes.Column{Name: names[i], Typ: c.Typ, Nullable: true})
	}
	for _, a := range aggs {
		cols = append(cols, sqltypes.Column{Name: a.Name, Typ: a.ResultType(), Nullable: true})
	}
	return sqltypes.NewSchema(cols...)
}

// Schema implements Operator.
func (h *HashAgg) Schema() *sqltypes.Schema { return h.schema }

// aggGroup is one group's accumulators.
type aggGroup struct {
	keyVals sqltypes.Row
	states  []aggAcc
}

// aggAcc accumulates one aggregate.
type aggAcc struct {
	count    int64
	sumI     int64
	sumF     exec.FloatSum
	min, max sqltypes.Value
	seen     bool
	distinct map[string]bool
}

func newAggGroup(aggs []exec.AggSpec, keyVals sqltypes.Row) *aggGroup {
	g := &aggGroup{keyVals: keyVals, states: make([]aggAcc, len(aggs))}
	for i, spec := range aggs {
		if spec.Distinct {
			g.states[i].distinct = make(map[string]bool)
		}
	}
	return g
}

func (g *aggGroup) add(aggs []exec.AggSpec, row sqltypes.Row) {
	for i := range aggs {
		spec := &aggs[i]
		st := &g.states[i]
		if spec.Kind == exec.CountStar {
			st.count++
			continue
		}
		v := spec.Arg.Eval(row)
		if v.Null {
			continue
		}
		if st.distinct != nil {
			key := string(exec.EncodeKey(nil, []sqltypes.Value{v}))
			if st.distinct[key] {
				continue
			}
			st.distinct[key] = true
		}
		st.count++
		switch spec.Kind {
		case exec.Sum, exec.Avg:
			st.sumI += v.I
			st.sumF.Add(v.AsFloat())
		case exec.Min:
			if !st.seen || sqltypes.Compare(v, st.min) < 0 {
				st.min = v
			}
		case exec.Max:
			if !st.seen || sqltypes.Compare(v, st.max) > 0 {
				st.max = v
			}
		}
		st.seen = true
	}
}

// merge folds another group's partial accumulator states into g. Counts and
// sums add; min/max compare under the seen flags. DISTINCT states are not
// mergeable (see ParallelizableAggs), so merge is only reached for specs
// without them.
func (g *aggGroup) merge(aggs []exec.AggSpec, o *aggGroup) {
	for i := range aggs {
		st, os := &g.states[i], &o.states[i]
		st.count += os.count
		st.sumI += os.sumI
		st.sumF.Merge(os.sumF)
		if os.seen {
			if !st.seen || sqltypes.Compare(os.min, st.min) < 0 {
				st.min = os.min
			}
			if !st.seen || sqltypes.Compare(os.max, st.max) > 0 {
				st.max = os.max
			}
			st.seen = true
		}
	}
}

func (g *aggGroup) finalize(aggs []exec.AggSpec) sqltypes.Row {
	out := make(sqltypes.Row, 0, len(g.keyVals)+len(aggs))
	out = append(out, g.keyVals...)
	for i := range aggs {
		spec := &aggs[i]
		st := &g.states[i]
		switch spec.Kind {
		case exec.CountStar, exec.Count:
			out = append(out, sqltypes.NewInt(st.count))
		case exec.Sum:
			switch {
			case st.count == 0:
				out = append(out, sqltypes.NewNull(spec.ResultType()))
			case spec.ResultType() == sqltypes.Float64:
				out = append(out, sqltypes.NewFloat(st.sumF.Value()))
			default:
				out = append(out, sqltypes.NewInt(st.sumI))
			}
		case exec.Avg:
			if st.count == 0 {
				out = append(out, sqltypes.NewNull(sqltypes.Float64))
			} else {
				out = append(out, sqltypes.NewFloat(st.sumF.Value()/float64(st.count)))
			}
		case exec.Min:
			if !st.seen {
				out = append(out, sqltypes.NewNull(spec.ResultType()))
			} else {
				out = append(out, st.min)
			}
		default:
			if !st.seen {
				out = append(out, sqltypes.NewNull(spec.ResultType()))
			} else {
				out = append(out, st.max)
			}
		}
	}
	return out
}

const aggSpillPartitions = 8

// aggTable holds the grouping and accumulation state of one hash aggregation:
// the generic encoded-key group map, the single-column fast paths (integer
// keys, dict-code string keys), the NULL and scalar groups, and the spill
// partitions. HashAgg drives one table over its whole input; ParallelAgg
// drives one table per exchange worker and merges them (mergeAggTables).
type aggTable struct {
	aggs       []exec.AggSpec
	groupBy    []int
	inSchema   *sqltypes.Schema
	tracker    *Tracker
	spillStore *storage.Store

	groups      map[string]*aggGroup
	intGroups   map[int64]*aggGroup
	nullGroup   *aggGroup
	scalarGroup *aggGroup
	order       []*aggGroup
	parts       []*spillPartition
	spilling    bool
	reserved    int64

	// Fast path state: fastInt applies to a single integer-family group
	// column; fastStr to a single string group column. Dict-coded batches
	// group on raw dictionary codes — a dense array when the dictionary is
	// small, a code-keyed map otherwise — and no group key is decoded except
	// once when its group is created. Materialized rows (delta store,
	// fallback segments) bridge into the same groups via a dictionary lookup,
	// falling back to a string-keyed map for values the shared dictionary has
	// never seen; this is sound because dictionary ids are stable, so code
	// and string identify a group interchangeably.
	fastInt   bool
	fastStr   bool
	strGroups map[string]*aggGroup
	codeMap   map[uint64]*aggGroup
	codeArr   []*aggGroup
	codedDict *encoding.Dict
	codedVals []string

	// Per-batch scratch.
	keyVals sqltypes.Row
	ptrs    []*aggGroup
	argVecs []*vector.Vector
}

const denseDictLimit = 1 << 14

func newAggTable(inSchema *sqltypes.Schema, groupBy []int, aggs []exec.AggSpec, tracker *Tracker, spillStore *storage.Store) *aggTable {
	t := &aggTable{
		aggs:       aggs,
		groupBy:    groupBy,
		inSchema:   inSchema,
		tracker:    tracker,
		spillStore: spillStore,
		groups:     make(map[string]*aggGroup),
		keyVals:    make(sqltypes.Row, len(groupBy)),
		argVecs:    make([]*vector.Vector, len(aggs)),
	}
	t.fastInt = len(groupBy) == 1 && inSchema.Cols[groupBy[0]].Typ != sqltypes.Float64 &&
		inSchema.Cols[groupBy[0]].Typ != sqltypes.String
	if t.fastInt {
		t.intGroups = make(map[int64]*aggGroup)
	}
	t.fastStr = len(groupBy) == 1 && inSchema.Cols[groupBy[0]].Typ == sqltypes.String
	if t.fastStr {
		t.strGroups = make(map[string]*aggGroup)
	}
	if len(groupBy) == 0 {
		t.scalarGroup = newAggGroup(aggs, nil)
		t.order = append(t.order, t.scalarGroup)
	}
	for i, spec := range aggs {
		if spec.Arg != nil {
			t.argVecs[i] = vector.NewVector(spec.Arg.Type(), vector.DefaultBatchSize)
		}
	}
	return t
}

func (t *aggTable) lookupCode(code uint64) *aggGroup {
	if t.codeArr != nil {
		if code < uint64(len(t.codeArr)) {
			return t.codeArr[code]
		}
		return nil
	}
	return t.codeMap[code]
}

func (t *aggTable) storeCode(code uint64, g *aggGroup) {
	if t.codeArr != nil {
		if code >= uint64(len(t.codeArr)) {
			if code < denseDictLimit {
				na := make([]*aggGroup, code+1+code/2)
				copy(na, t.codeArr)
				t.codeArr = na
			} else {
				// Dictionary outgrew the dense range: degrade to a map.
				t.codeMap = make(map[uint64]*aggGroup, len(t.codeArr))
				for c, gr := range t.codeArr {
					if gr != nil {
						t.codeMap[uint64(c)] = gr
					}
				}
				t.codeArr = nil
				t.codeMap[code] = g
				return
			}
		}
		t.codeArr[code] = g
		return
	}
	t.codeMap[code] = g
}

func (t *aggTable) startSpilling() {
	t.spilling = true
	t.parts = make([]*spillPartition, aggSpillPartitions)
	for j := range t.parts {
		t.parts[j] = newSpillPartition(t.spillStore, t.inSchema)
	}
}

// spillRow routes physical row i of a (compacted) batch to a partition by
// group-key hash; the partition writes dict-coded cells as raw codes.
func (t *aggTable) spillRow(b *vector.Batch, i int, key string) error {
	part := int(hashString(key)>>57) % aggSpillPartitions
	return t.parts[part].addBatchRow(b, i)
}

// addBatch folds one compacted batch into the table. Aggregation is
// vectorized: group pointers are resolved per batch (with the single-column
// fast paths), each aggregate argument is evaluated once per batch into a
// vector, and accumulation runs in tight loops over the vector payloads.
func (t *aggTable) addBatch(b *vector.Batch) error {
	b.Compact()
	n := b.NumRows()
	if n == 0 {
		return nil
	}
	if cap(t.ptrs) < n {
		t.ptrs = make([]*aggGroup, n)
	}
	ptrs := t.ptrs[:n]

	// Resolve the group of every row.
	switch {
	case t.scalarGroup != nil:
		for i := range ptrs {
			ptrs[i] = t.scalarGroup
		}
	case t.fastInt:
		mAggBatchesFastInt.Inc()
		vec := b.Vecs[t.groupBy[0]]
		typ := t.inSchema.Cols[t.groupBy[0]].Typ
		for i := 0; i < n; i++ {
			if vec.IsNull(i) {
				if t.nullGroup == nil {
					cost := int64(64 + 64*len(t.aggs))
					if !t.tracker.TryReserve(cost) && t.spillStore != nil {
						// A single NULL group is cheap; charge it anyway.
						t.tracker.Release(0)
					} else {
						t.reserved += cost
					}
					t.nullGroup = newAggGroup(t.aggs, sqltypes.Row{sqltypes.NewNull(typ)})
					t.order = append(t.order, t.nullGroup)
				}
				ptrs[i] = t.nullGroup
				continue
			}
			k := vec.I64[i]
			grp := t.intGroups[k]
			if grp == nil {
				if t.spilling {
					t.keyVals[0] = sqltypes.Value{Typ: typ, I: k}
					if err := t.spillRow(b, i, string(exec.EncodeKey(nil, t.keyVals))); err != nil {
						return err
					}
					ptrs[i] = nil
					continue
				}
				cost := int64(64 + 64*len(t.aggs))
				if !t.tracker.TryReserve(cost) && t.spillStore != nil {
					t.tracker.NoteSpill()
					t.startSpilling()
					t.keyVals[0] = sqltypes.Value{Typ: typ, I: k}
					if err := t.spillRow(b, i, string(exec.EncodeKey(nil, t.keyVals))); err != nil {
						return err
					}
					ptrs[i] = nil
					continue
				}
				t.reserved += cost
				grp = newAggGroup(t.aggs, sqltypes.Row{{Typ: typ, I: k}})
				t.intGroups[k] = grp
				t.order = append(t.order, grp)
			}
			ptrs[i] = grp
		}
	case t.fastStr:
		vec := b.Vecs[t.groupBy[0]]
		if vec.IsCoded() {
			if t.codedDict == nil {
				t.codedDict = vec.Dict
				t.codedVals = vec.DictVals
				if len(t.codedVals) <= denseDictLimit {
					t.codeArr = make([]*aggGroup, len(t.codedVals))
				} else {
					t.codeMap = make(map[uint64]*aggGroup, 1024)
				}
			} else if vec.Dict == t.codedDict && len(vec.DictVals) > len(t.codedVals) {
				t.codedVals = vec.DictVals
			}
		}
		sameDict := vec.IsCoded() && vec.Dict == t.codedDict
		if sameDict {
			mAggBatchesCoded.Inc()
		} else {
			mAggBatchesStr.Inc()
		}
		for i := 0; i < n; i++ {
			if vec.IsNull(i) {
				if t.nullGroup == nil {
					cost := int64(64 + 64*len(t.aggs))
					if !t.tracker.TryReserve(cost) && t.spillStore != nil {
						t.tracker.Release(0)
					} else {
						t.reserved += cost
					}
					t.nullGroup = newAggGroup(t.aggs, sqltypes.Row{sqltypes.NewNull(sqltypes.String)})
					t.order = append(t.order, t.nullGroup)
				}
				ptrs[i] = t.nullGroup
				continue
			}
			var code uint64
			var s string
			haveCode := false
			if sameDict {
				code = vec.Codes[i]
				haveCode = true
			} else {
				s = vec.StrAt(i)
				if t.codedDict != nil {
					if id, ok := t.codedDict.Lookup(s); ok {
						code, haveCode = uint64(id), true
					}
				}
			}
			var grp *aggGroup
			if haveCode {
				grp = t.lookupCode(code)
			} else {
				grp = t.strGroups[s]
			}
			if grp == nil {
				if haveCode {
					if sameDict {
						s = t.codedVals[code] // decode once per new group
					}
					// The value may already own a group created from a
					// materialized row before any coded batch arrived.
					if g2 := t.strGroups[s]; g2 != nil {
						t.storeCode(code, g2)
						ptrs[i] = g2
						continue
					}
				}
				if t.spilling {
					if err := t.spillRow(b, i, s); err != nil {
						return err
					}
					ptrs[i] = nil
					continue
				}
				cost := int64(64+len(s)) + int64(64*len(t.aggs))
				if !t.tracker.TryReserve(cost) && t.spillStore != nil {
					t.tracker.NoteSpill()
					t.startSpilling()
					if err := t.spillRow(b, i, s); err != nil {
						return err
					}
					ptrs[i] = nil
					continue
				}
				t.reserved += cost
				grp = newAggGroup(t.aggs, sqltypes.Row{sqltypes.NewString(s)})
				if haveCode {
					t.storeCode(code, grp)
				} else {
					t.strGroups[s] = grp
				}
				t.order = append(t.order, grp)
			}
			ptrs[i] = grp
		}
	default:
		mAggBatchesGeneric.Inc()
		for i := 0; i < n; i++ {
			for c, g := range t.groupBy {
				t.keyVals[c] = b.Vecs[g].Value(i)
			}
			key := string(exec.EncodeKey(nil, t.keyVals))
			grp := t.groups[key]
			if grp == nil {
				if t.spilling {
					if err := t.spillRow(b, i, key); err != nil {
						return err
					}
					ptrs[i] = nil
					continue
				}
				cost := rowBytes(t.keyVals) + int64(64*len(t.aggs))
				if !t.tracker.TryReserve(cost) && t.spillStore != nil {
					t.tracker.NoteSpill()
					t.startSpilling()
					if err := t.spillRow(b, i, key); err != nil {
						return err
					}
					ptrs[i] = nil
					continue
				}
				t.reserved += cost
				grp = newAggGroup(t.aggs, t.keyVals.Clone())
				t.groups[key] = grp
				t.order = append(t.order, grp)
			}
			ptrs[i] = grp
		}
	}

	// Accumulate each aggregate over the batch.
	for k := range t.aggs {
		t.accumulate(k, b, ptrs, t.argVecs[k])
	}
	return nil
}

// results finalizes the in-memory groups and then the spilled partitions.
// Each spilled partition holds a disjoint subset of the overflow groups (the
// in-memory groups were created before spilling began and absorb their rows
// directly), so partitions are aggregated independently in memory.
func (t *aggTable) results(ctx context.Context) ([]sqltypes.Row, error) {
	var results []sqltypes.Row
	for _, grp := range t.order {
		results = append(results, grp.finalize(t.aggs))
	}
	for _, part := range t.parts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rows, err := part.readAll()
		if err != nil {
			return nil, err
		}
		pgroups := make(map[string]*aggGroup)
		var porder []*aggGroup
		for _, r := range rows {
			for c, g := range t.groupBy {
				t.keyVals[c] = r[g]
			}
			key := string(exec.EncodeKey(nil, t.keyVals))
			grp := pgroups[key]
			if grp == nil {
				grp = newAggGroup(t.aggs, t.keyVals.Clone())
				pgroups[key] = grp
				porder = append(porder, grp)
			}
			grp.add(t.aggs, r)
		}
		for _, grp := range porder {
			results = append(results, grp.finalize(t.aggs))
		}
	}
	return results, nil
}

// release returns the table's memory grant and drops any unread spill blobs.
func (t *aggTable) release() {
	t.tracker.Release(t.reserved)
	t.reserved = 0
	for _, p := range t.parts {
		if p != nil {
			p.drop()
		}
	}
	t.parts = nil
}

// Open implements Operator: consumes the whole input and aggregates.
func (h *HashAgg) Open(ctx context.Context) error {
	if err := h.In.Open(ctx); err != nil {
		return err
	}
	defer h.In.Close()

	t := newAggTable(h.In.Schema(), h.GroupBy, h.Aggs, h.Tracker, h.SpillStore)
	h.table = t
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, err := h.In.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if err := t.addBatch(b); err != nil {
			return err
		}
	}

	results, err := t.results(ctx)
	if err != nil {
		return err
	}
	h.out = &Values{Rows: results, Sch: h.schema}
	return h.out.Open(ctx)
}

// accumulate folds one aggregate over a batch, vectorized where the state
// kind allows; NULL rows and spilled rows (nil group pointers) are skipped.
func (t *aggTable) accumulate(k int, b *vector.Batch, ptrs []*aggGroup, argVec *vector.Vector) {
	spec := &t.aggs[k]
	n := b.NumRows()
	if spec.Kind == exec.CountStar {
		for _, g := range ptrs {
			if g != nil {
				g.states[k].count++
			}
		}
		return
	}
	spec.Arg.EvalVec(b, argVec)

	if spec.Distinct {
		for i := 0; i < n; i++ {
			g := ptrs[i]
			if g == nil || argVec.IsNull(i) {
				continue
			}
			st := &g.states[k]
			v := argVec.Value(i)
			key := string(exec.EncodeKey(nil, []sqltypes.Value{v}))
			if st.distinct[key] {
				continue
			}
			st.distinct[key] = true
			st.count++
			st.add(spec.Kind, v)
		}
		return
	}

	switch {
	case (spec.Kind == exec.Sum || spec.Kind == exec.Avg) && argVec.Typ != sqltypes.Float64 && argVec.Typ != sqltypes.String:
		vals := argVec.I64[:n]
		if argVec.HasNulls() {
			for i, g := range ptrs {
				if g == nil || argVec.Nulls.Get(i) {
					continue
				}
				st := &g.states[k]
				st.count++
				st.sumI += vals[i]
				st.sumF.Add(float64(vals[i]))
			}
		} else {
			for i, g := range ptrs {
				if g == nil {
					continue
				}
				st := &g.states[k]
				st.count++
				st.sumI += vals[i]
				st.sumF.Add(float64(vals[i]))
			}
		}
	case (spec.Kind == exec.Sum || spec.Kind == exec.Avg) && argVec.Typ == sqltypes.Float64:
		vals := argVec.F64[:n]
		for i, g := range ptrs {
			if g == nil || argVec.IsNull(i) {
				continue
			}
			st := &g.states[k]
			st.count++
			st.sumF.Add(vals[i])
		}
	default: // Min, Max, Count over any type
		for i, g := range ptrs {
			if g == nil || argVec.IsNull(i) {
				continue
			}
			st := &g.states[k]
			st.count++
			st.add(spec.Kind, argVec.Value(i))
		}
	}
}

// add folds one non-NULL value into the state for Min/Max/Count (Sum/Avg use
// the vectorized loops; callers have already bumped count except for Min/Max
// paths that share this helper).
func (st *aggAcc) add(kind exec.AggKind, v sqltypes.Value) {
	switch kind {
	case exec.Sum, exec.Avg:
		st.sumI += v.I
		st.sumF.Add(v.AsFloat())
	case exec.Min:
		if !st.seen || sqltypes.Compare(v, st.min) < 0 {
			st.min = v
		}
	case exec.Max:
		if !st.seen || sqltypes.Compare(v, st.max) > 0 {
			st.max = v
		}
	}
	st.seen = true
}

func hashString(s string) uint64 {
	var acc uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		acc = (acc ^ uint64(s[i])) * 1099511628211
	}
	return acc
}

// Next implements Operator.
func (h *HashAgg) Next() (*vector.Batch, error) { return h.out.Next() }

// Close implements Operator.
func (h *HashAgg) Close() error {
	if h.table != nil {
		h.table.release()
		h.table = nil
	}
	h.out = nil
	return nil
}

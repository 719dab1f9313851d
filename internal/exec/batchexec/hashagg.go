package batchexec

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

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
	key     uint64 // packed key, while the table packs
	states  []aggAcc
}

// aggAcc accumulates one aggregate. An integer SUM or AVG is exact: sumHi and
// sumLo hold the total as one two's-complement 128-bit number, so no input
// can wrap it; a float SUM or AVG accumulates in sumF.
type aggAcc struct {
	count    int64
	sumLo    uint64
	sumHi    int64
	sumF     exec.FloatSum
	min, max sqltypes.Value
	seen     bool
	distinct map[uint64]struct{} // a DISTINCT aggregate's values, keyed by distinctKeys
}

func newAggGroup(aggs []exec.AggSpec, keyVals sqltypes.Row) *aggGroup {
	g := &aggGroup{keyVals: keyVals, states: make([]aggAcc, len(aggs))}
	for i, spec := range aggs {
		if spec.Distinct {
			g.states[i].distinct = make(map[uint64]struct{})
		}
	}
	return g
}

// merge folds another group's partial accumulator states into g. Counts and
// sums add; min/max compare under the seen flags. DISTINCT states are not
// mergeable (see ParallelizableAggs), so merge is only reached for specs
// without them.
func (g *aggGroup) merge(aggs []exec.AggSpec, o *aggGroup) {
	for i := range aggs {
		st, os := &g.states[i], &o.states[i]
		st.count += os.count
		var carry uint64
		st.sumLo, carry = bits.Add64(st.sumLo, os.sumLo, 0)
		st.sumHi += os.sumHi + int64(carry)
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

func (g *aggGroup) finalize(aggs []exec.AggSpec) (sqltypes.Row, error) {
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
			case st.sumHi != int64(st.sumLo)>>63:
				return nil, fmt.Errorf("arithmetic overflow: %s leaves the BIGINT range", spec.Name)
			default:
				out = append(out, sqltypes.NewInt(int64(st.sumLo)))
			}
		case exec.Avg:
			switch {
			case st.count == 0:
				out = append(out, sqltypes.NewNull(sqltypes.Float64))
			case spec.Arg.Type() == sqltypes.Float64:
				out = append(out, sqltypes.NewFloat(st.sumF.Value()/float64(st.count)))
			default:
				out = append(out, sqltypes.NewFloat(sumFloat(st.sumHi, st.sumLo)/float64(st.count)))
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
	return out, nil
}

// sumFloat converts a 128-bit sum to float64: exactly rounded while it fits
// an int64, within a rounding of hi*2^64 + lo beyond.
func sumFloat(hi int64, lo uint64) float64 {
	if hi == int64(lo)>>63 {
		return float64(int64(lo))
	}
	return float64(hi)*0x1p64 + float64(lo)
}

const aggSpillPartitions = 8

// aggTable holds the grouping and accumulation state of one hash aggregation:
// the group table, the groups in first-seen order, and the spill partitions.
// HashAgg drives one table over its whole input; ParallelAgg drives one table
// per exchange worker and merges them (mergeAggTables).
type aggTable struct {
	aggs       []exec.AggSpec
	groupBy    []int
	inSchema   *sqltypes.Schema
	tracker    *Tracker
	spillStore *storage.Store

	order    []*aggGroup
	parts    []*spillPartition
	spilling bool
	reserved int64

	// Group lookup: packed keys in dense or packed, or, once cols is nil,
	// exec.EncodeKey bytes in groups. The rest is per-batch scratch.
	cols         []keyCol
	shift, width []uint
	dense        []*aggGroup
	packed       map[uint64]*aggGroup
	groups       map[string]*aggGroup // keyed by exec.EncodeKey
	keys, ids    []uint64
	hasher       keyHasher // partitions the rows that spill
	keyBuf       []byte
	keyVals      sqltypes.Row
	ptrs         []*aggGroup
	argVecs      []*vector.Vector
	distinct     []keyCol // string ids of DISTINCT arguments, per aggregate
}

func newAggTable(inSchema *sqltypes.Schema, groupBy []int, aggs []exec.AggSpec, tracker *Tracker, spillStore *storage.Store) *aggTable {
	t := &aggTable{
		aggs:       aggs,
		groupBy:    groupBy,
		inSchema:   inSchema,
		tracker:    tracker,
		spillStore: spillStore,
		cols:       make([]keyCol, len(groupBy)),
		shift:      make([]uint, len(groupBy)),
		width:      make([]uint, len(groupBy)),
		dense:      make([]*aggGroup, 1),
		keyVals:    make(sqltypes.Row, len(groupBy)),
		argVecs:    make([]*vector.Vector, len(aggs)),
	}
	for i, spec := range aggs {
		if spec.Arg != nil {
			t.argVecs[i] = vector.NewVector(spec.Arg.Type(), vector.DefaultBatchSize)
		}
	}
	float := false
	for c, g := range groupBy {
		typ := inSchema.Cols[g].Typ
		float = float || typ == sqltypes.Float64
		t.cols[c] = newKeyCol(typ)
	}
	if len(groupBy) == 0 {
		// The scalar group exists even over empty input, at key 0.
		t.dense[0] = newAggGroup(aggs, nil)
		t.order = append(t.order, t.dense[0])
	}
	if float {
		t.toEncoded()
	}
	return t
}

// toEncoded moves the table, once, from packed keys to the exec.EncodeKey map.
func (t *aggTable) toEncoded() {
	t.groups = make(map[string]*aggGroup, len(t.order))
	for _, g := range t.order {
		t.groups[string(exec.EncodeKey(nil, g.keyVals))] = g
	}
	t.cols, t.dense, t.packed = nil, nil, nil
}

// widen gives key column c w bits and repacks every group's key, or moves
// the table to the encoded map when the widths no longer fit packedKeyBits.
// Only columns after c shift, so keys packed from columns before c stay valid.
func (t *aggTable) widen(c int, w uint) bool {
	var buf [2][8]uint
	oldShift, oldWidth := append(buf[0][:0], t.shift...), append(buf[1][:0], t.width...)
	t.width[c] = w
	var total uint
	for j := range t.width {
		t.shift[j] = total
		total += t.width[j]
	}
	switch {
	case total > packedKeyBits:
		t.toEncoded()
		return false
	case total <= denseKeyBits && 1<<total <= len(t.dense):
		clear(t.dense)
	case total <= denseKeyBits:
		t.dense = make([]*aggGroup, max(1<<total, 64))
	case t.packed != nil && slices.Equal(oldShift, t.shift):
		return true // map keys stay valid
	default:
		t.dense, t.packed = nil, make(map[uint64]*aggGroup, len(t.order))
	}
	for _, g := range t.order {
		var k uint64
		for j := range t.width {
			k |= (g.key >> oldShift[j] & (1<<oldWidth[j] - 1)) << t.shift[j]
		}
		g.key = k
		t.put(k, g)
	}
	return true
}

func (t *aggTable) lookup(k uint64) *aggGroup {
	if t.dense == nil {
		return t.packed[k]
	}
	if k < uint64(len(t.dense)) {
		return t.dense[k]
	}
	return nil
}

func (t *aggTable) put(k uint64, g *aggGroup) {
	if t.dense == nil {
		t.packed[k] = g
	} else {
		t.dense[k] = g
	}
}

// packKeys computes the packed key of every row of vecs into t.keys, one key
// column at a time. It reports false when the table moved to the encoded map
// instead.
func (t *aggTable) packKeys(vecs []*vector.Vector, n int) bool {
	t.keys = scratch(t.keys, n)
	clear(t.keys)
	for c := range t.cols {
		kc := &t.cols[c]
		t.ids = scratch(t.ids, n)
		kc.fill(vecs[t.groupBy[c]], t.ids, !t.spilling)
		if w := uint(bits.Len64(kc.n)); w > t.width[c] && !t.widen(c, w) {
			return false
		}
		pack(t.keys, t.ids, t.shift[c], false)
	}
	return true
}

// loadKey copies row i's group-by values into t.keyVals.
func (t *aggTable) loadKey(vecs []*vector.Vector, i int) {
	for c, g := range t.groupBy {
		t.keyVals[c] = vecs[g].Value(i)
	}
}

func (t *aggTable) startSpilling() {
	t.spilling = true
	t.parts = make([]*spillPartition, aggSpillPartitions)
	for j := range t.parts {
		t.parts[j] = newSpillPartition(t.spillStore, t.inSchema)
	}
}

// addBatch folds one compacted batch into the table. Aggregation is
// vectorized: the group of every row is resolved first, each aggregate
// argument is evaluated once per batch into a vector, and accumulation runs
// in tight loops over the vector payloads. Once the table spills, a row
// without a group in memory goes to a spill partition by key hash.
func (t *aggTable) addBatch(b *vector.Batch) error {
	b.Compact()
	n := b.NumRows()
	if n == 0 {
		return nil
	}
	t.resolve(b.Vecs, n)
	if t.spilling {
		for i, h := range t.hasher.hash(b.Vecs, t.groupBy, n) {
			if t.ptrs[i] == nil {
				if err := t.parts[partOf(h, aggSpillPartitions)].addBatchRow(b, i); err != nil {
					return err
				}
			}
		}
	}
	for k := range t.aggs {
		t.accumulate(k, b, t.ptrs, t.argVecs[k])
	}
	return nil
}

// resolve writes the group of each of rows [0, n) of vecs, a batch in the
// input layout whose group-by columns at least are set, to t.ptrs, creating
// the groups it lacks under the memory grant. A row without a group once
// the table spills gets nil.
func (t *aggTable) resolve(vecs []*vector.Vector, n int) {
	t.ptrs = scratch(t.ptrs, n)
	packed := t.cols != nil && t.packKeys(vecs, n)
	if packed {
		mAggBatchesPacked.Inc()
	} else {
		mAggBatchesEncoded.Inc()
	}
	for i := range t.ptrs {
		var g *aggGroup
		if packed {
			g = t.lookup(t.keys[i])
		} else {
			t.loadKey(vecs, i)
			t.keyBuf = exec.EncodeKey(t.keyBuf[:0], t.keyVals)
			g = t.groups[string(t.keyBuf)]
		}
		if g == nil && !t.spilling {
			g = t.newGroup(vecs, i, packed)
		}
		t.ptrs[i] = g
	}
}

// newGroup creates the group of row i under the memory grant. Once the grant
// is exhausted (and a spill store is set) the table starts spilling instead,
// and newGroup returns nil.
func (t *aggTable) newGroup(vecs []*vector.Vector, i int, packed bool) *aggGroup {
	if packed {
		t.loadKey(vecs, i)
	}
	cost := rowBytes(t.keyVals) + int64(64*len(t.aggs))
	if t.tracker.TryReserve(cost) {
		t.reserved += cost
	} else if t.spillStore != nil {
		t.tracker.NoteSpill()
		t.startSpilling()
		return nil
	}
	g := newAggGroup(t.aggs, t.keyVals.Clone())
	if packed {
		g.key = t.keys[i]
		t.put(g.key, g)
	} else {
		t.groups[string(t.keyBuf)] = g
	}
	t.order = append(t.order, g)
	return g
}

// results finalizes the in-memory groups and then the spilled partitions.
// Each spilled partition holds a disjoint subset of the overflow groups (the
// in-memory groups were created before spilling began and absorb their rows
// directly), so partitions are aggregated independently in memory.
func (t *aggTable) results(ctx context.Context) ([]sqltypes.Row, error) {
	results, err := finalizeAll(nil, t.aggs, t.order)
	if err != nil {
		return nil, err
	}
	for _, part := range t.parts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		batches, err := part.readAll(vector.DefaultBatchSize)
		if err != nil {
			return nil, err
		}
		pt := newAggTable(t.inSchema, t.groupBy, t.aggs, nil, nil)
		for _, b := range batches {
			if err := pt.addBatch(b); err != nil {
				return nil, err
			}
		}
		if results, err = finalizeAll(results, t.aggs, pt.order); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// finalizeAll appends the finalized rows of groups to dst.
func finalizeAll(dst []sqltypes.Row, aggs []exec.AggSpec, groups []*aggGroup) ([]sqltypes.Row, error) {
	for _, g := range groups {
		row, err := g.finalize(aggs)
		if err != nil {
			return nil, err
		}
		dst = append(dst, row)
	}
	return dst, nil
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
		keys := t.distinctKeys(k, argVec, n)
		for i, g := range ptrs {
			if g == nil || argVec.IsNull(i) {
				continue
			}
			st := &g.states[k]
			if _, dup := st.distinct[keys[i]]; dup {
				continue
			}
			st.distinct[keys[i]] = struct{}{}
			st.count++
			st.add(spec, argVec.Value(i))
		}
		return
	}

	switch {
	case (spec.Kind == exec.Sum || spec.Kind == exec.Avg) && argVec.Typ != sqltypes.Float64 && argVec.Typ != sqltypes.String:
		vals := argVec.I64[:n]
		hasNulls := argVec.HasNulls()
		for i, g := range ptrs {
			if g == nil || hasNulls && argVec.Nulls.Get(i) {
				continue
			}
			st := &g.states[k]
			st.count++
			st.addInt(vals[i])
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
			st.add(spec, argVec.Value(i))
		}
	}
}

// distinctKeys returns, for rows [0, n) of the DISTINCT argument v of
// aggregate k, keys that are equal exactly when the values are equal as
// group keys of one column: a string's id, whatever its form; an integer's
// bits; a float's bits with -0.0 folded into +0.0. The result is scratch,
// valid until the next call.
func (t *aggTable) distinctKeys(k int, v *vector.Vector, n int) []uint64 {
	t.ids = scratch(t.ids, n)
	switch v.Typ {
	case sqltypes.String:
		if t.distinct == nil {
			t.distinct = make([]keyCol, len(t.aggs))
		}
		if t.distinct[k].strs == nil {
			t.distinct[k] = newKeyCol(sqltypes.String)
		}
		t.distinct[k].fill(v, t.ids, true)
	case sqltypes.Float64:
		for i, f := range v.F64[:n] {
			if f == 0 {
				f = 0
			}
			t.ids[i] = math.Float64bits(f)
		}
	default:
		for i, x := range v.I64[:n] {
			t.ids[i] = uint64(x)
		}
	}
	return t.ids
}

// addInt adds v to the exact 128-bit sum.
func (st *aggAcc) addInt(v int64) {
	var carry uint64
	st.sumLo, carry = bits.Add64(st.sumLo, uint64(v), 0)
	st.sumHi += v>>63 + int64(carry)
}

// add folds one non-NULL value into the state; callers count it.
func (st *aggAcc) add(spec *exec.AggSpec, v sqltypes.Value) {
	switch spec.Kind {
	case exec.Sum, exec.Avg:
		if spec.Arg.Type() == sqltypes.Float64 {
			st.sumF.Add(v.AsFloat())
		} else {
			st.addInt(v.I)
		}
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

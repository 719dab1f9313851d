package rowexec

import (
	"apollo/internal/exec"
	"apollo/internal/expr"
	"apollo/internal/sqltypes"
)

// aggState accumulates one aggregate for one group.
type aggState struct {
	count    int64 // non-NULL inputs (or all rows for COUNT(*))
	sumI     int64
	sumF     exec.FloatSum
	min, max sqltypes.Value
	seen     bool
	distinct map[string]bool
}

func newAggState(spec exec.AggSpec) *aggState {
	st := &aggState{}
	if spec.Distinct {
		st.distinct = make(map[string]bool)
	}
	return st
}

// add folds one input row into the state.
func (st *aggState) add(spec exec.AggSpec, row sqltypes.Row) {
	if spec.Kind == exec.CountStar {
		st.count++
		return
	}
	v := spec.Arg.Eval(row)
	if v.Null {
		return
	}
	if st.distinct != nil {
		key := string(exec.EncodeKey(nil, []sqltypes.Value{v}))
		if st.distinct[key] {
			return
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

// result finalizes the aggregate value.
func (st *aggState) result(spec exec.AggSpec) sqltypes.Value {
	switch spec.Kind {
	case exec.CountStar, exec.Count:
		return sqltypes.NewInt(st.count)
	case exec.Sum:
		if st.count == 0 {
			return sqltypes.NewNull(spec.ResultType())
		}
		if spec.ResultType() == sqltypes.Float64 {
			return sqltypes.NewFloat(st.sumF.Value())
		}
		return sqltypes.NewInt(st.sumI)
	case exec.Avg:
		if st.count == 0 {
			return sqltypes.NewNull(sqltypes.Float64)
		}
		return sqltypes.NewFloat(st.sumF.Value() / float64(st.count))
	case exec.Min:
		if !st.seen {
			return sqltypes.NewNull(spec.ResultType())
		}
		return st.min
	default: // Max
		if !st.seen {
			return sqltypes.NewNull(spec.ResultType())
		}
		return st.max
	}
}

// HashAggregate groups rows by the GroupBy expressions and computes the
// aggregates. With no GroupBy expressions it is a scalar aggregation that
// emits exactly one row, even over empty input.
type HashAggregate struct {
	In      Operator
	GroupBy []expr.Expr
	Names   []string // names for the group-by output columns
	Aggs    []exec.AggSpec
	schema  *sqltypes.Schema
	results []sqltypes.Row
	i       int
}

// NewHashAggregate builds a row-mode aggregation.
func NewHashAggregate(in Operator, groupBy []expr.Expr, names []string, aggs []exec.AggSpec) *HashAggregate {
	cols := make([]sqltypes.Column, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		cols = append(cols, sqltypes.Column{Name: names[i], Typ: g.Type(), Nullable: true})
	}
	for _, a := range aggs {
		cols = append(cols, sqltypes.Column{Name: a.Name, Typ: a.ResultType(), Nullable: true})
	}
	return &HashAggregate{In: in, GroupBy: groupBy, Names: names, Aggs: aggs, schema: sqltypes.NewSchema(cols...)}
}

// Schema implements Operator.
func (h *HashAggregate) Schema() *sqltypes.Schema { return h.schema }

// Open implements Operator: consumes the whole input.
func (h *HashAggregate) Open() error {
	if err := h.In.Open(); err != nil {
		return err
	}
	defer h.In.Close()

	type group struct {
		keyVals sqltypes.Row
		states  []*aggState
	}
	groups := make(map[string]*group)
	var order []string // deterministic output order (first-seen)

	keyVals := make([]sqltypes.Value, len(h.GroupBy))
	for {
		row, err := h.In.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		for i, g := range h.GroupBy {
			keyVals[i] = g.Eval(row)
		}
		key := string(exec.EncodeKey(nil, keyVals))
		grp := groups[key]
		if grp == nil {
			grp = &group{keyVals: append(sqltypes.Row(nil), keyVals...), states: make([]*aggState, len(h.Aggs))}
			for i, spec := range h.Aggs {
				grp.states[i] = newAggState(spec)
			}
			groups[key] = grp
			order = append(order, key)
		}
		for i, spec := range h.Aggs {
			grp.states[i].add(spec, row)
		}
	}

	// Scalar aggregation over empty input still yields one row.
	if len(h.GroupBy) == 0 && len(groups) == 0 {
		states := make([]*aggState, len(h.Aggs))
		for i, spec := range h.Aggs {
			states[i] = newAggState(spec)
		}
		groups[""] = &group{states: states}
		order = append(order, "")
	}

	h.results = h.results[:0]
	for _, key := range order {
		grp := groups[key]
		out := make(sqltypes.Row, 0, h.schema.Len())
		out = append(out, grp.keyVals...)
		for i, spec := range h.Aggs {
			out = append(out, grp.states[i].result(spec))
		}
		h.results = append(h.results, out)
	}
	h.i = 0
	return nil
}

// Next implements Operator.
func (h *HashAggregate) Next() (sqltypes.Row, error) {
	if h.i >= len(h.results) {
		return nil, nil
	}
	r := h.results[h.i]
	h.i++
	return r, nil
}

// Close implements Operator.
func (h *HashAggregate) Close() error {
	h.results = nil
	return nil
}

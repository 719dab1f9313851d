package rowexec

import (
	"fmt"
	"math/bits"

	"apollo/internal/exec"
	"apollo/internal/expr"
	"apollo/internal/sqltypes"
)

// aggState accumulates one aggregate for one group. An integer SUM or AVG is
// exact: sumHi and sumLo hold the total as one two's-complement 128-bit
// number, as the batch engine's accumulator does; a float SUM or AVG
// accumulates in sumF.
type aggState struct {
	count    int64 // non-NULL inputs (or all rows for COUNT(*))
	sumLo    uint64
	sumHi    int64
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
		if spec.Arg.Type() == sqltypes.Float64 {
			st.sumF.Add(v.AsFloat())
		} else {
			var carry uint64
			st.sumLo, carry = bits.Add64(st.sumLo, uint64(v.I), 0)
			st.sumHi += v.I>>63 + int64(carry)
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

// result finalizes the aggregate value. An integer SUM whose exact total
// leaves the int64 range is an arithmetic overflow.
func (st *aggState) result(spec exec.AggSpec) (sqltypes.Value, error) {
	switch spec.Kind {
	case exec.CountStar, exec.Count:
		return sqltypes.NewInt(st.count), nil
	case exec.Sum:
		switch {
		case st.count == 0:
			return sqltypes.NewNull(spec.ResultType()), nil
		case spec.ResultType() == sqltypes.Float64:
			return sqltypes.NewFloat(st.sumF.Value()), nil
		case st.sumHi != int64(st.sumLo)>>63:
			return sqltypes.Value{}, fmt.Errorf("arithmetic overflow: %s leaves the BIGINT range", spec.Name)
		}
		return sqltypes.NewInt(int64(st.sumLo)), nil
	case exec.Avg:
		switch {
		case st.count == 0:
			return sqltypes.NewNull(sqltypes.Float64), nil
		case spec.Arg.Type() == sqltypes.Float64:
			return sqltypes.NewFloat(st.sumF.Value() / float64(st.count)), nil
		}
		sum := float64(int64(st.sumLo)) // exactly rounded while it fits an int64
		if st.sumHi != int64(st.sumLo)>>63 {
			sum = float64(st.sumHi)*0x1p64 + float64(st.sumLo)
		}
		return sqltypes.NewFloat(sum / float64(st.count)), nil
	case exec.Min:
		if !st.seen {
			return sqltypes.NewNull(spec.ResultType()), nil
		}
		return st.min, nil
	default: // Max
		if !st.seen {
			return sqltypes.NewNull(spec.ResultType()), nil
		}
		return st.max, nil
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
			v, err := grp.states[i].result(spec)
			if err != nil {
				return err
			}
			out = append(out, v)
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

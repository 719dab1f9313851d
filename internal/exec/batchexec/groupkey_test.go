package batchexec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"apollo/internal/encoding"
	"apollo/internal/exec"
	"apollo/internal/exec/rowexec"
	"apollo/internal/expr"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/vector"
)

// batchList replays prebuilt batches, so a test decides each string
// vector's physical form.
type batchList struct {
	sch     *sqltypes.Schema
	batches []*vector.Batch
	pos     int
}

func (l *batchList) Schema() *sqltypes.Schema       { return l.sch }
func (l *batchList) Open(ctx context.Context) error { l.pos = 0; return nil }
func (l *batchList) Close() error                   { return nil }
func (l *batchList) Next() (*vector.Batch, error) {
	if l.pos >= len(l.batches) {
		return nil, nil
	}
	l.pos++
	return l.batches[l.pos-1], nil
}

// mixedForms cuts rows into 64-row batches and rotates every string column
// through three forms: coded against dictA (the column's own dictionary,
// which lacks the "off-" values; a batch holding one stays materialized),
// materialized, and coded against dictB, a dictionary of its own whose codes
// mean other strings than dictA's.
func mixedForms(sch *sqltypes.Schema, rows []sqltypes.Row, dictA, dictB *encoding.Dict) *batchList {
	const size = 64
	l := &batchList{sch: sch}
	for start, k := 0, 0; start < len(rows); start, k = start+size, k+1 {
		chunk := rows[start:min(start+size, len(rows))]
		b := vector.NewBatch(sch, len(chunk))
		b.SetNumRows(len(chunk))
		for c, col := range sch.Cols {
			v := b.Vecs[c]
			if col.Typ == sqltypes.String && k%3 != 1 {
				d := dictA
				if k%3 == 2 {
					d = dictB
				}
				if codeAll(v, chunk, c, d, d == dictB) {
					continue
				}
			}
			for i, r := range chunk {
				v.SetValue(i, r[c])
			}
		}
		l.batches = append(l.batches, b)
	}
	return l
}

// codeAll codes column c of chunk into v against d, adding missing values
// when grow is set; it reports false when d lacks a value.
func codeAll(v *vector.Vector, chunk []sqltypes.Row, c int, d *encoding.Dict, grow bool) bool {
	codes := make([]uint64, len(chunk))
	for i, r := range chunk {
		if r[c].Null {
			continue
		}
		id, ok := d.Lookup(r[c].S)
		if !ok && !grow {
			return false
		}
		if !ok {
			id = d.Add(r[c].S)
		}
		codes[i] = uint64(id)
	}
	v.MakeCoded(d, d.SnapshotValues(), len(chunk))
	copy(v.Codes, codes)
	for i, r := range chunk {
		if r[c].Null {
			v.SetNull(i)
		}
	}
	return true
}

// Property: every GROUP BY key shape gives the row engine's answer, through
// serial and parallel aggregation, with and without spilling: 1-4 key
// columns mixing Int64, Date, Bool and String, NULL in every key column,
// coded, materialized and foreign-dictionary string vectors in one column,
// strings the column dictionary lacks, a float key, and a column whose ids
// outgrow their packed width after groups exist. One input adds COUNT and
// SUM (DISTINCT x) for x of every type, strings in all three forms and
// floats with -0.0, +0.0, 2^53 and halves; it runs serially only, as the
// planner runs DISTINCT.
func TestGroupKeyShapesParity(t *testing.T) {
	pool := []string{"amber", "basalt", "cobalt", "dune", "ember", "flint", "garnet", "heath", "iris", "jade", "kelp", "loam"}
	shapes := []struct {
		name  string
		types []sqltypes.Type
		rows  int
		// keyBits, when set, lowers the packed key budget so that a
		// column's ids outgrow it after groups exist.
		keyBits uint
		moved   bool  // the table ends on the encoded map
		grant   int64 // spills partway through the input
		// distinct lists the types of the DISTINCT arguments.
		distinct []sqltypes.Type
	}{
		{"int", []sqltypes.Type{sqltypes.Int64}, 3000, 0, false, 32 << 10, nil},
		{"string", []sqltypes.Type{sqltypes.String}, 3000, 0, false, 2 << 10, nil},
		{"date,bool", []sqltypes.Type{sqltypes.Date, sqltypes.Bool}, 3000, 0, false, 8 << 10, nil},
		{"string,int,string", []sqltypes.Type{sqltypes.String, sqltypes.Int64, sqltypes.String}, 3000, 0, false, 32 << 10, nil},
		{"int,date,bool,string", []sqltypes.Type{sqltypes.Int64, sqltypes.Date, sqltypes.Bool, sqltypes.String}, 3000, 0, false, 32 << 10, nil},
		{"float,int", []sqltypes.Type{sqltypes.Float64, sqltypes.Int64}, 3000, 0, true, 32 << 10, nil},
		{"string,growing int", []sqltypes.Type{sqltypes.String, sqltypes.Int64}, 3000, 6, true, 48 << 10, nil},
		{"int, distinct args", []sqltypes.Type{sqltypes.Int64}, 3000, 0, false, 64 << 10,
			[]sqltypes.Type{sqltypes.Int64, sqltypes.Date, sqltypes.Bool, sqltypes.String, sqltypes.Float64}},
	}
	for si, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			if sh.keyBits != 0 {
				defer func(old uint) { packedKeyBits = old }(packedKeyBits)
				packedKeyBits = sh.keyBits
			}
			cols := make([]sqltypes.Column, 0, len(sh.types)+1)
			groupBy := make([]int, len(sh.types))
			names := make([]string, len(sh.types))
			keyExprs := make([]expr.Expr, len(sh.types))
			for c, typ := range sh.types {
				names[c] = fmt.Sprintf("k%d", c)
				cols = append(cols, sqltypes.Column{Name: names[c], Typ: typ, Nullable: true})
				groupBy[c] = c
				keyExprs[c] = expr.NewColRef(c, names[c], typ)
			}
			cols = append(cols, sqltypes.Column{Name: "v", Typ: sqltypes.Int64, Nullable: true})
			for j, typ := range sh.distinct {
				cols = append(cols, sqltypes.Column{Name: fmt.Sprintf("x%d", j), Typ: typ, Nullable: true})
			}
			sch := sqltypes.NewSchema(cols...)
			v := expr.NewColRef(len(sh.types), "v", sqltypes.Int64)
			aggs := []exec.AggSpec{
				{Kind: exec.CountStar, Name: "n"},
				{Kind: exec.Sum, Arg: v, Name: "s"},
				{Kind: exec.Avg, Arg: v, Name: "a"},
				{Kind: exec.Min, Arg: v, Name: "lo"},
			}
			for j, typ := range sh.distinct {
				x := expr.NewColRef(len(sh.types)+1+j, fmt.Sprintf("x%d", j), typ)
				aggs = append(aggs, exec.AggSpec{Kind: exec.Count, Arg: x, Distinct: true, Name: fmt.Sprintf("n%d", j)})
				if typ != sqltypes.String {
					aggs = append(aggs, exec.AggSpec{Kind: exec.Sum, Arg: x, Distinct: true, Name: fmt.Sprintf("s%d", j)})
				}
			}

			rng := rand.New(rand.NewSource(int64(1000 + si)))
			rows := make([]sqltypes.Row, sh.rows)
			for i := range rows {
				r := make(sqltypes.Row, 0, len(cols))
				for _, typ := range sh.types {
					var val sqltypes.Value
					switch typ {
					case sqltypes.Int64:
						val = sqltypes.NewInt(int64(rng.Intn(400)))
						if sh.keyBits != 0 {
							val = sqltypes.NewInt(int64(i / 40)) // a new value every 40 rows
						}
					case sqltypes.Date:
						val = sqltypes.NewDate(int64(9000 + rng.Intn(30)))
					case sqltypes.Bool:
						val = sqltypes.NewBool(rng.Intn(2) == 0)
					case sqltypes.Float64:
						val = sqltypes.NewFloat(float64(rng.Intn(20)) + 0.5)
					default:
						val = sqltypes.NewString(pool[rng.Intn(len(pool))])
						if rng.Intn(150) == 0 {
							val = sqltypes.NewString(fmt.Sprintf("off-%d", rng.Intn(3)))
						}
					}
					if rng.Intn(10) == 0 {
						val = sqltypes.NewNull(typ)
					}
					r = append(r, val)
				}
				r = append(r, sqltypes.NewInt(int64(rng.Intn(1000))))
				for _, typ := range sh.distinct {
					var val sqltypes.Value
					switch typ {
					case sqltypes.Int64:
						val = sqltypes.NewInt(int64(rng.Intn(6)))
					case sqltypes.Date:
						val = sqltypes.NewDate(int64(9000 + rng.Intn(4)))
					case sqltypes.Bool:
						val = sqltypes.NewBool(rng.Intn(2) == 0)
					case sqltypes.Float64:
						val = sqltypes.NewFloat([]float64{math.Copysign(0, -1), 0, 1 << 53, 0.5, 1.5, 2.5}[rng.Intn(6)])
					default:
						val = sqltypes.NewString(pool[rng.Intn(4)])
						if rng.Intn(150) == 0 {
							val = sqltypes.NewString(fmt.Sprintf("off-%d", rng.Intn(3)))
						}
					}
					if rng.Intn(10) == 0 {
						val = sqltypes.NewNull(typ)
					}
					r = append(r, val)
				}
				rows[i] = r
			}
			want := rowModeRows(t, rowexec.NewHashAggregate(&rowexec.Values{Rows: rows, Sch: sch}, keyExprs, names, aggs))

			dictA := encoding.NewDict()
			for _, s := range pool {
				dictA.Add(s)
			}
			input := func() *batchList { return mixedForms(sch, rows, dictA, encoding.NewDict()) }
			if sh.keyBits != 0 {
				// The move happens after groups exist.
				in := input()
				tb := newAggTable(sch, groupBy, aggs, nil, nil)
				for i, b := range in.batches {
					if err := tb.addBatch(b); err != nil {
						t.Fatal(err)
					}
					if i == 0 && (tb.cols == nil || len(tb.order) == 0) {
						t.Fatalf("first batch: packed=%v groups=%d, want packed groups", tb.cols != nil, len(tb.order))
					}
				}
				if tb.cols != nil {
					t.Fatal("ids never outgrew the packed key")
				}
			}

			for _, grant := range []int64{0, sh.grant} {
				for _, dop := range []int{1, 2} {
					if dop > 1 && sh.distinct != nil {
						continue
					}
					label := fmt.Sprintf("dop=%d grant=%d", dop, grant)
					var op Operator
					var tracker *Tracker
					if grant > 0 {
						tracker = NewTracker(grant)
					}
					var tables func() []*aggTable
					if dop == 1 {
						h := NewHashAgg(input(), groupBy, names, aggs)
						h.Tracker, h.SpillStore = tracker, storage.NewStore(0)
						op, tables = h, func() []*aggTable { return []*aggTable{h.table} }
					} else {
						p := parallelAggOver(input(), dop, groupBy, names, aggs)
						p.Tracker, p.SpillStore = tracker, storage.NewStore(0)
						op, tables = p, func() []*aggTable { return p.tables }
					}
					if err := op.Open(context.Background()); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					// A parallel worker may start spilling, and so stop handing
					// out ids, before its own table moves.
					for _, tb := range tables() {
						if moved := tb.cols == nil; moved != sh.moved && len(tb.order) > 0 && (dop == 1 || grant == 0) {
							t.Errorf("%s: table moved to the encoded map = %v, want %v", label, moved, sh.moved)
						}
					}
					var got []sqltypes.Row
					for {
						b, err := op.Next()
						if err != nil {
							t.Fatal(err)
						}
						if b == nil {
							break
						}
						for i := 0; i < b.Len(); i++ {
							got = append(got, b.Row(b.RowIdx(i)))
						}
					}
					op.Close()
					if grant > 0 && tracker.Spills() == 0 {
						t.Errorf("%s: no spill", label)
					}
					if g := rowMultiset(got); !mapsEqual(g, want) {
						t.Errorf("%s: %d groups, row engine %d\n%s", label, len(g), len(want), multisetDiff(g, want))
					}
				}
			}
		})
	}
}

// Property: an integer SUM is exact in both engines. Over BIGINT values
// that overflow an int64 running sum, AVG still divides the exact total, and
// a SUM whose total leaves the int64 range fails with an arithmetic
// overflow, grouped and scalar, serial and at DOP 2, and through a spill.
func TestIntegerSumExact(t *testing.T) {
	sch := sqltypes.NewSchema(
		sqltypes.Column{Name: "g", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "v", Typ: sqltypes.Int64},
	)
	v := expr.NewColRef(1, "v", sqltypes.Int64)
	sum := []exec.AggSpec{{Kind: exec.Sum, Arg: v, Name: "SUM(v)"}}
	avg := []exec.AggSpec{{Kind: exec.Avg, Arg: v, Name: "AVG(v)"}}
	// Group 1's running sum leaves the int64 range midway but its total
	// ends inside; group 2's total leaves it. Groups 3..
	// are filler, enough of them to spill under a small grant.
	var ok, over []sqltypes.Row
	for _, x := range []int64{math.MaxInt64, math.MaxInt64, math.MinInt64, math.MinInt64, 5} {
		ok = append(ok, sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewInt(x)})
	}
	for g := int64(3); g < 400; g++ {
		ok = append(ok, sqltypes.Row{sqltypes.NewInt(g), sqltypes.NewInt(g)})
	}
	over = append(over, ok...)
	for _, x := range []int64{math.MaxInt64, math.MaxInt64, 2} {
		over = append(over, sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewInt(x)})
	}

	type run struct {
		name string
		op   func(rows []sqltypes.Row, groupBy []int, aggs []exec.AggSpec) (Operator, *Tracker)
	}
	runs := []run{
		{"serial", func(rows []sqltypes.Row, groupBy []int, aggs []exec.AggSpec) (Operator, *Tracker) {
			return NewHashAgg(&Values{Rows: rows, Sch: sch}, groupBy, names(groupBy), aggs), nil
		}},
		{"dop=2", func(rows []sqltypes.Row, groupBy []int, aggs []exec.AggSpec) (Operator, *Tracker) {
			return parallelAggOver(&Values{Rows: rows, Sch: sch}, 2, groupBy, names(groupBy), aggs), nil
		}},
		{"serial spill", func(rows []sqltypes.Row, groupBy []int, aggs []exec.AggSpec) (Operator, *Tracker) {
			h := NewHashAgg(&Values{Rows: rows, Sch: sch}, groupBy, names(groupBy), aggs)
			h.Tracker, h.SpillStore = NewTracker(4<<10), storage.NewStore(0)
			return h, h.Tracker
		}},
		{"dop=2 spill", func(rows []sqltypes.Row, groupBy []int, aggs []exec.AggSpec) (Operator, *Tracker) {
			p := parallelAggOver(&Values{Rows: rows, Sch: sch}, 2, groupBy, names(groupBy), aggs)
			p.Tracker, p.SpillStore = NewTracker(4<<10), storage.NewStore(0)
			return p, p.Tracker
		}},
	}
	rowRun := func(rows []sqltypes.Row, groupBy []int, aggs []exec.AggSpec) ([]sqltypes.Row, error) {
		var keys []expr.Expr
		for _, g := range groupBy {
			keys = append(keys, expr.NewColRef(g, "g", sqltypes.Int64))
		}
		return rowexec.Drain(rowexec.NewHashAggregate(&rowexec.Values{Rows: rows, Sch: sch}, keys, names(groupBy), aggs))
	}
	const wantAvg = (2*float64(math.MaxInt64) + 2) / 3

	for _, groupBy := range [][]int{{0}, nil} {
		// Grouped: group 1's SUM is exact though its running sum wraps.
		if groupBy != nil {
			for _, r := range runs {
				op, tracker := r.op(ok, groupBy, sum)
				got, err := Drain(op)
				if err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
				if tracker != nil && tracker.Spills() == 0 {
					t.Fatalf("%s: no spill", r.name)
				}
				for _, row := range got {
					if row[0].I == 1 && row[1].I != 3 {
						t.Fatalf("%s: SUM over the wrapping group = %v, want 3", r.name, row[1])
					}
				}
			}
		}
		// The overflowing SUM fails in both engines; AVG divides the exact sum.
		rows := over
		if groupBy == nil {
			rows = over[len(over)-3:]
		}
		if _, err := rowRun(rows, groupBy, sum); err == nil || !strings.Contains(err.Error(), "arithmetic overflow") {
			t.Fatalf("row engine, group by %v: SUM error = %v, want arithmetic overflow", groupBy, err)
		}
		for _, r := range runs {
			if groupBy == nil && strings.Contains(r.name, "spill") {
				continue // a scalar aggregation has one group and never spills
			}
			op, _ := r.op(rows, groupBy, sum)
			if _, err := Drain(op); err == nil || !strings.Contains(err.Error(), "arithmetic overflow") {
				t.Fatalf("%s, group by %v: SUM error = %v, want arithmetic overflow", r.name, groupBy, err)
			}
			op, _ = r.op(rows, groupBy, avg)
			got, err := Drain(op)
			if err != nil {
				t.Fatalf("%s, group by %v: AVG: %v", r.name, groupBy, err)
			}
			wantRows, err := rowRun(rows, groupBy, avg)
			if err != nil {
				t.Fatal(err)
			}
			if !mapsEqual(rowMultiset(got), rowMultiset(wantRows)) {
				t.Fatalf("%s, group by %v: AVG differs from the row engine", r.name, groupBy)
			}
			for _, row := range got {
				if (groupBy == nil || row[0].I == 2) && row[len(row)-1].F != wantAvg {
					t.Fatalf("%s, group by %v: AVG = %v, want %v", r.name, groupBy, row[len(row)-1], wantAvg)
				}
			}
		}
	}
}

func names(groupBy []int) []string {
	out := make([]string, len(groupBy))
	for i := range out {
		out[i] = "g"
	}
	return out
}

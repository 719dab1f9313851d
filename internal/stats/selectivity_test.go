package stats

import (
	"fmt"
	"math"
	"testing"

	"apollo/internal/expr"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/table"
)

// skewTable builds a table with known distributions for estimator tests:
//
//	u  BIGINT  uniform 0..99            (20 rows each over 2000 rows)
//	z  BIGINT  isqrt skew 0..44         (value k appears 2k+1 times)
//	s  VARCHAR 4 values, uniform-ish
//	f  DOUBLE  0..1999, 10% NULL
func skewTable(t *testing.T) *table.Table {
	t.Helper()
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "u", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "z", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "s", Typ: sqltypes.String},
		sqltypes.Column{Name: "f", Typ: sqltypes.Float64, Nullable: true},
	)
	opts := table.Options{RowGroupSize: 500, BulkLoadThreshold: 100, Columnstore: table.DefaultOptions().Columnstore}
	tb := table.New(storage.NewStore(storage.DefaultBufferPoolBytes), "skew", schema, opts)
	isq := func(n int) int64 {
		r := 0
		for (r+1)*(r+1) <= n {
			r++
		}
		return int64(r)
	}
	rows := make([]sqltypes.Row, 2000)
	for i := range rows {
		f := sqltypes.NewFloat(float64(i))
		if i%10 == 0 {
			f = sqltypes.NewNull(sqltypes.Float64)
		}
		rows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i % 100)),
			sqltypes.NewInt(isq(i)),
			sqltypes.NewString(fmt.Sprintf("s%d", i%4)),
			f,
		}
	}
	if err := tb.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	return tb
}

func wantSel(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: selectivity %.4f, want %.4f (±%.4f)", name, got, want, tol)
	}
}

func TestEqSelectivity(t *testing.T) {
	ts := Collect(skewTable(t))
	// Uniform: 20/2000 rows per value.
	wantSel(t, "u=50", ts.EqSelectivity(0, sqltypes.NewInt(50)), 0.01, 0.006)
	// Skewed heavy hitter: value 44 holds 89/2000 rows.
	wantSel(t, "z=44", ts.EqSelectivity(1, sqltypes.NewInt(44)), 0.0445, 0.03)
	// Skewed tail: value 2 holds 5/2000 rows — bucket-local density, not
	// the ~1/45 global fallback.
	wantSel(t, "z=2", ts.EqSelectivity(1, sqltypes.NewInt(2)), 0.0025, 0.006)
	// Out of range and NULL probes match nothing.
	if got := ts.EqSelectivity(0, sqltypes.NewInt(500)); got != 0 {
		t.Errorf("u=500 (out of range): %v, want 0", got)
	}
	if got := ts.EqSelectivity(0, sqltypes.NewNull(sqltypes.Int64)); got != 0 {
		t.Errorf("u=NULL: %v, want 0", got)
	}
	// Strings fall back to 1/NDV (4 values).
	wantSel(t, "s='s1'", ts.EqSelectivity(2, sqltypes.NewString("s1")), 0.25, 0.05)
}

func TestRangeSelectivityOpenHistogram(t *testing.T) {
	ts := Collect(skewTable(t))
	null := sqltypes.NewNull(sqltypes.Int64)
	// u in [10, 29]: exactly 400/2000.
	wantSel(t, "u in [10,29]",
		ts.RangeSelectivityOpen(0, sqltypes.NewInt(10), sqltypes.NewInt(29), false, false), 0.20, 0.05)
	// z >= 40: (81+83+85+87+89)/2000 = 0.2125 — the histogram must see the
	// mass concentration that a uniform assumption (5/45) would miss.
	wantSel(t, "z >= 40",
		ts.RangeSelectivityOpen(1, sqltypes.NewInt(40), null, false, false), 0.2125, 0.05)
	// Degenerate closed range = equality.
	wantSel(t, "u in [50,50]",
		ts.RangeSelectivityOpen(0, sqltypes.NewInt(50), sqltypes.NewInt(50), false, false), 0.01, 0.006)
	// Open vs closed bounds differ by one value's share.
	closed := ts.RangeSelectivityOpen(0, sqltypes.NewInt(10), sqltypes.NewInt(29), false, false)
	open := ts.RangeSelectivityOpen(0, sqltypes.NewInt(10), sqltypes.NewInt(29), true, true)
	if open >= closed {
		t.Errorf("open range (%.4f) should be smaller than closed (%.4f)", open, closed)
	}
	// The float column scales by its non-null fraction.
	all := ts.RangeSelectivityOpen(3, sqltypes.NewNull(sqltypes.Float64), sqltypes.NewNull(sqltypes.Float64), false, false)
	wantSel(t, "f unbounded", all, 0.90, 0.02)
}

func TestConjunctSelectivity(t *testing.T) {
	ts := Collect(skewTable(t))
	colU := expr.NewColRef(0, "u", sqltypes.Int64)
	colS := expr.NewColRef(2, "s", sqltypes.String)
	colF := expr.NewColRef(3, "f", sqltypes.Float64)
	c := func(v int64) expr.Expr { return expr.NewConst(sqltypes.NewInt(v)) }

	wantSel(t, "u = 50",
		ts.ConjunctSelectivity(expr.NewCmp(expr.EQ, colU, c(50))), 0.01, 0.006)
	wantSel(t, "u != 50",
		ts.ConjunctSelectivity(expr.NewCmp(expr.NE, colU, c(50))), 0.99, 0.006)
	wantSel(t, "u < 25",
		ts.ConjunctSelectivity(expr.NewCmp(expr.LT, colU, c(25))), 0.25, 0.05)
	wantSel(t, "f IS NULL",
		ts.ConjunctSelectivity(expr.NewIsNull(colF, false)), 0.10, 0.01)
	wantSel(t, "f IS NOT NULL",
		ts.ConjunctSelectivity(expr.NewIsNull(colF, true)), 0.90, 0.01)
	wantSel(t, "u IN (1,2,3)",
		ts.ConjunctSelectivity(expr.NewInList(colU, []sqltypes.Value{
			sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NewInt(3)})), 0.03, 0.015)
	wantSel(t, "s LIKE 's%'",
		ts.ConjunctSelectivity(expr.NewLike(colS, "s%", false)), 0.1, 0.001)
	wantSel(t, "s NOT LIKE 's%'",
		ts.ConjunctSelectivity(expr.NewLike(colS, "s%", true)), 0.9, 0.001)
	// OR of two disjoint equalities ~ sum; AND applies the backoff damp.
	or := ts.ConjunctSelectivity(&expr.Logic{Op: expr.Or, Kids: []expr.Expr{
		expr.NewCmp(expr.EQ, colU, c(1)), expr.NewCmp(expr.EQ, colU, c(2))}})
	wantSel(t, "u=1 OR u=2", or, 0.02, 0.01)
	and := ts.ConjunctSelectivity(expr.NewAnd(
		expr.NewCmp(expr.LT, colU, c(50)), expr.NewCmp(expr.EQ, colS, expr.NewConst(sqltypes.NewString("s1")))))
	if and <= 0.25*0.5*0.9 || and > 0.5 {
		t.Errorf("AND with backoff: %.4f outside (%.4f, 0.5]", and, 0.25*0.5*0.9)
	}
	// Multi-column predicates get the default guess.
	multi := ts.ConjunctSelectivity(expr.NewCmp(expr.LT, colU, expr.NewColRef(1, "z", sqltypes.Int64)))
	if multi != DefaultConjunctSelectivity {
		t.Errorf("multi-column conjunct: %.4f, want default %.2f", multi, DefaultConjunctSelectivity)
	}
	// SelectivityOf an empty list is 1.
	if got := ts.SelectivityOf(nil); got != 1 {
		t.Errorf("SelectivityOf(nil) = %v, want 1", got)
	}
}

func TestCombineSelectivities(t *testing.T) {
	if got := CombineSelectivities(nil); got != 1 {
		t.Fatalf("empty = %v", got)
	}
	if got := CombineSelectivities([]float64{0.5, 0}); got != 0 {
		t.Fatalf("zero term = %v", got)
	}
	// Most selective first at full weight, then sqrt damping: 0.1 * 0.5^0.5.
	want := 0.1 * math.Sqrt(0.5)
	if got := CombineSelectivities([]float64{0.5, 0.1}); math.Abs(got-want) > 1e-9 {
		t.Fatalf("backoff = %v, want %v", got, want)
	}
	// Order-insensitive.
	a := CombineSelectivities([]float64{0.9, 0.2, 0.4})
	b := CombineSelectivities([]float64{0.2, 0.4, 0.9})
	if a != b {
		t.Fatalf("order-sensitive combine: %v vs %v", a, b)
	}
}

func TestHLLCount(t *testing.T) {
	var h HLL
	if got := h.Count(); got != 0 {
		t.Fatalf("empty sketch count = %v", got)
	}
	for i := 0; i < 5000; i++ {
		h.Add(sqltypes.NewInt(int64(i % 1000)))
	}
	if got := h.Count(); math.Abs(got-1000) > 60 {
		t.Fatalf("int count = %.1f, want ~1000", got)
	}
	var s1, s2 HLL
	for i := 0; i < 500; i++ {
		s1.Add(sqltypes.NewString(fmt.Sprintf("a%d", i)))
		s2.Add(sqltypes.NewString(fmt.Sprintf("b%d", i)))
	}
	s1.Merge(&s2)
	if got := s1.Count(); math.Abs(got-1000) > 60 {
		t.Fatalf("merged string count = %.1f, want ~1000", got)
	}
	// Distinct value kinds hash apart: NULL, int, float, string.
	var kinds HLL
	kinds.Add(sqltypes.NewNull(sqltypes.Int64))
	kinds.Add(sqltypes.NewInt(0))
	kinds.Add(sqltypes.NewFloat(0))
	kinds.Add(sqltypes.NewString(""))
	if got := kinds.Count(); got < 3.5 {
		t.Fatalf("kind-mixed count = %.1f, want ~4", got)
	}
}

func TestValueHashDeterministic(t *testing.T) {
	// Golden hashes: the planner's NDV estimates (and therefore golden
	// plans) depend on these exact values across processes and platforms.
	if got := valueHash(sqltypes.NewInt(42)); got != valueHash(sqltypes.NewInt(42)) {
		t.Fatal("int hash unstable")
	}
	if valueHash(sqltypes.NewInt(42)) == valueHash(sqltypes.NewInt(43)) {
		t.Fatal("adjacent ints collide")
	}
	if valueHash(sqltypes.NewString("x")) == valueHash(sqltypes.NewString("y")) {
		t.Fatal("strings collide")
	}
	if valueHash(sqltypes.NewNull(sqltypes.Int64)) == valueHash(sqltypes.NewInt(0)) {
		t.Fatal("NULL collides with zero")
	}
}

func TestFracEQAndDensity(t *testing.T) {
	ts := Collect(skewTable(t))
	h := ts.Cols[1].Hist // z: isqrt skew
	if h == nil {
		t.Fatal("no histogram on z")
	}
	// 44 holds 89/2000 = 4.45%: under two bucket depths (1/16 of rows), so
	// heavy-hitter detection abstains and bucket density answers instead.
	if f := h.FracEQ(sqltypes.NewInt(44)); f != -1 {
		t.Errorf("FracEQ(44) = %v, want -1 (spans < 2 buckets)", f)
	}
	if f := h.EqDensity(sqltypes.NewInt(44)); f < 0.015 || f > 0.09 {
		t.Errorf("EqDensity(44) = %v, want ~0.03-0.045", f)
	}
	// A true heavy hitter repeats across bounds: 500/1000 rows of value 7.
	var vals []sqltypes.Value
	for i := 0; i < 1000; i++ {
		v := int64(7)
		if i >= 500 {
			v = int64(i)
		}
		vals = append(vals, sqltypes.NewInt(v))
	}
	heavy := histogramFromSorted(vals, 16)
	if f := heavy.FracEQ(sqltypes.NewInt(7)); math.Abs(f-0.5) > 0.1 {
		t.Errorf("FracEQ(heavy 7) = %v, want ~0.5", f)
	}
	// 2 holds 5/2000: no repeated bounds, so FracEQ abstains...
	if f := h.FracEQ(sqltypes.NewInt(2)); f != -1 {
		t.Errorf("FracEQ(2) = %v, want -1 (not a heavy hitter)", f)
	}
	// ...and bucket-local density takes over, well under the 1/45 fallback.
	if f := h.EqDensity(sqltypes.NewInt(2)); f < 0 || f > 0.01 {
		t.Errorf("EqDensity(2) = %v, want (0, 0.01]", f)
	}
	var empty Histogram
	if f := empty.FracEQ(sqltypes.NewInt(1)); f != -1 {
		t.Errorf("empty FracEQ = %v", f)
	}
	if f := empty.EqDensity(sqltypes.NewInt(1)); f != -1 {
		t.Errorf("empty EqDensity = %v", f)
	}
}

func TestFracLE(t *testing.T) {
	ts := Collect(skewTable(t))
	h := ts.Cols[0].Hist // u: uniform 0..99
	if h == nil {
		t.Fatal("no histogram on u")
	}
	cases := []struct{ v, want, tol float64 }{
		{-1, 0, 0.02},
		{24, 0.25, 0.05},
		{49, 0.50, 0.05},
		{74, 0.75, 0.05},
		{99, 1.00, 0.001},
		{500, 1.00, 0.001},
	}
	for _, tc := range cases {
		if got := h.FracLE(sqltypes.NewInt(int64(tc.v))); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("FracLE(%v) = %.3f, want %.3f (±%.3f)", tc.v, got, tc.want, tc.tol)
		}
	}
}

func TestScaleDistinct(t *testing.T) {
	allOnce := map[uint64]int{1: 1, 2: 1, 3: 1, 4: 1}
	// Every sampled value unique: distinct scales linearly with population.
	if got := scaleDistinct(4, allOnce, 4, 400); got < 300 {
		t.Errorf("unique sample scaled to %d, want ~400", got)
	}
	// Every value repeated: the sample has seen (almost) everything.
	allDup := map[uint64]int{1: 2, 2: 2}
	if got := scaleDistinct(2, allDup, 4, 400); got != 2 {
		t.Errorf("repeated sample scaled to %d, want 2", got)
	}
	// Exhaustive sample: exact.
	if got := scaleDistinct(7, allOnce, 400, 400); got != 7 {
		t.Errorf("exhaustive sample = %d, want 7", got)
	}
	if got := scaleDistinct(5, nil, 0, 0); got != 1 {
		t.Errorf("empty sample = %d, want 1", got)
	}
}

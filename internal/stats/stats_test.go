package stats

import (
	"math/rand"
	"testing"

	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/table"
)

func buildTable(t *testing.T, n int) (*table.Table, []sqltypes.Row) {
	t.Helper()
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "k", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "s", Typ: sqltypes.String},
		sqltypes.Column{Name: "f", Typ: sqltypes.Float64, Nullable: true},
	)
	opts := table.Options{RowGroupSize: 500, BulkLoadThreshold: 100, Columnstore: table.DefaultOptions().Columnstore}
	tb := table.New(storage.NewStore(storage.DefaultBufferPoolBytes), "t", schema, opts)
	rng := rand.New(rand.NewSource(5))
	names := []string{"a", "b", "c", "d"}
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		f := sqltypes.NewFloat(float64(i))
		if i%10 == 0 {
			f = sqltypes.NewNull(sqltypes.Float64)
		}
		rows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(100 + i)),
			sqltypes.NewString(names[rng.Intn(len(names))]),
			f,
		}
	}
	if err := tb.BulkLoad(rows[:n*4/5]); err != nil {
		t.Fatal(err)
	}
	if err := tb.InsertMany(rows[n*4/5:]); err != nil {
		t.Fatal(err)
	}
	return tb, rows
}

func TestCollect(t *testing.T) {
	tb, _ := buildTable(t, 2000)
	st := Collect(tb)
	if st.Rows != 2000 {
		t.Fatalf("Rows = %d", st.Rows)
	}
	if st.Cols[0].Min.I != 100 || st.Cols[0].Max.I != 2099 {
		t.Fatalf("k bounds = %v..%v", st.Cols[0].Min, st.Cols[0].Max)
	}
	if st.Cols[2].NullCount != 200 {
		t.Fatalf("f nulls = %d", st.Cols[2].NullCount)
	}
	// String column distinct estimate comes from the primary dictionary.
	if d := st.Cols[1].DistinctEst; d != 4 {
		t.Fatalf("s distinct = %d", d)
	}
}

func TestCollectReflectsDeletes(t *testing.T) {
	tb, _ := buildTable(t, 1000)
	if _, err := tb.DeleteWhere(func(r sqltypes.Row) bool { return r[0].I < 200 }); err != nil {
		t.Fatal(err)
	}
	st := Collect(tb)
	if st.Rows != 900 {
		t.Fatalf("Rows after delete = %d", st.Rows)
	}
}

func TestRangeSelectivity(t *testing.T) {
	tb, _ := buildTable(t, 1000)
	st := Collect(tb)
	null := sqltypes.NewNull(sqltypes.Int64)

	full := st.RangeSelectivity(0, null, null)
	if full < 0.99 {
		t.Fatalf("unbounded selectivity = %f", full)
	}
	half := st.RangeSelectivity(0, sqltypes.NewInt(100), sqltypes.NewInt(599))
	if half < 0.4 || half > 0.6 {
		t.Fatalf("half selectivity = %f", half)
	}
	none := st.RangeSelectivity(0, sqltypes.NewInt(5000), null)
	if none != 0 {
		t.Fatalf("out-of-range selectivity = %f", none)
	}
	eq := st.RangeSelectivity(0, sqltypes.NewInt(500), sqltypes.NewInt(500))
	if eq <= 0 || eq > 0.01 {
		t.Fatalf("equality selectivity = %f", eq)
	}
	// String equality uses distinct counts.
	seq := st.RangeSelectivity(1, sqltypes.NewString("a"), sqltypes.NewString("a"))
	if seq != 0.25 {
		t.Fatalf("string equality selectivity = %f", seq)
	}
}

func TestRangeSelectivityEmptyTable(t *testing.T) {
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "k", Typ: sqltypes.Int64})
	tb := table.New(storage.NewStore(0), "t", schema, table.DefaultOptions())
	st := Collect(tb)
	if st.Rows != 0 {
		t.Fatalf("Rows = %d", st.Rows)
	}
	if sel := st.RangeSelectivity(0, sqltypes.NewInt(0), sqltypes.NewInt(10)); sel != 0 {
		t.Fatalf("selectivity on empty table = %f", sel)
	}
}

func TestHistogram(t *testing.T) {
	tb, rows := buildTable(t, 5000)
	st := CollectWith(tb, CollectOptions{SampleSize: 2000, Buckets: 32, Seed: 3})
	h := st.Cols[0].Hist
	if h == nil || len(h.Bounds) == 0 {
		t.Fatal("empty histogram")
	}
	// Estimate rows with k <= median; truth is ~half.
	exact := 0
	mid := sqltypes.NewInt(100 + 2500)
	for _, r := range rows {
		if r[0].I <= mid.I {
			exact++
		}
	}
	est := h.FracLE(mid) * float64(st.Rows)
	errFrac := (est - float64(exact)) / float64(exact)
	if errFrac < -0.15 || errFrac > 0.15 {
		t.Fatalf("estimate %f vs exact %d (err %.2f)", est, exact, errFrac)
	}
	// Below-min and above-max estimates.
	if f := h.FracLE(sqltypes.NewInt(0)); f != 0 {
		t.Fatalf("below-min fraction = %f, want 0", f)
	}
	if f := h.FracLE(sqltypes.NewInt(1 << 30)); f != 1 {
		t.Fatalf("above-max fraction = %f, want 1", f)
	}
}

// A single-valued column yields buckets that all share one bound.
func TestHistogramDegenerate(t *testing.T) {
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "k", Typ: sqltypes.Int64})
	tb := table.New(storage.NewStore(0), "t", schema, table.DefaultOptions())
	for i := 0; i < 100; i++ {
		if _, err := tb.Insert(sqltypes.Row{sqltypes.NewInt(5)}); err != nil {
			t.Fatal(err)
		}
	}
	h := CollectWith(tb, CollectOptions{Buckets: 8}).Cols[0].Hist
	if f := h.FracLE(sqltypes.NewInt(4)); f != 0 {
		t.Fatalf("FracLE below the value = %f, want 0", f)
	}
	if f := h.FracLE(sqltypes.NewInt(5)); f != 1 {
		t.Fatalf("FracLE at the value = %f, want 1", f)
	}
	if f := h.FracEQ(sqltypes.NewInt(5)); f < 0.9 {
		t.Fatalf("FracEQ of the only value = %f", f)
	}
}

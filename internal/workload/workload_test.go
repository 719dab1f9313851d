package workload

import (
	"testing"

	"apollo/internal/catalog"
	"apollo/internal/metrics"
	"apollo/internal/plan"
	"apollo/internal/sql"
	"apollo/internal/storage"
	"apollo/internal/table"
)

func TestGenSSBShape(t *testing.T) {
	d := GenSSB(0.1, 1)
	if len(d.Lineorder) != 6000 {
		t.Fatalf("lineorder = %d", len(d.Lineorder))
	}
	if len(d.Date) != 7*365 {
		t.Fatalf("dates = %d", len(d.Date))
	}
	if len(d.Customer) == 0 || len(d.Supplier) == 0 || len(d.Part) == 0 {
		t.Fatal("empty dimension")
	}
	// Referential integrity: FKs resolve.
	for _, lo := range d.Lineorder[:100] {
		if lo[1].I < 1 || lo[1].I > int64(len(d.Customer)) {
			t.Fatal("custkey out of range")
		}
		if lo[2].I < 1 || lo[2].I > int64(len(d.Part)) {
			t.Fatal("partkey out of range")
		}
		if lo[3].I < 1 || lo[3].I > int64(len(d.Supplier)) {
			t.Fatal("suppkey out of range")
		}
	}
	// Determinism.
	d2 := GenSSB(0.1, 1)
	if d2.Lineorder[42].String() != d.Lineorder[42].String() {
		t.Fatal("generator not deterministic")
	}
}

func newSSBEngine(t *testing.T, mode plan.Mode, sf float64) *sql.Engine {
	t.Helper()
	cat := catalog.New(storage.NewStore(storage.DefaultBufferPoolBytes))
	opts := table.DefaultOptions()
	opts.RowGroupSize = 4096
	opts.BulkLoadThreshold = 512
	if err := LoadSSB(cat, GenSSB(sf, 7), opts); err != nil {
		t.Fatal(err)
	}
	return &sql.Engine{Cat: cat, PlanOpts: plan.Options{Mode: mode}, TableOpts: opts}
}

func TestSSBQueriesRunAndModesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e14 := newSSBEngine(t, plan.Mode2014, 0.1)
	eRow := newSSBEngine(t, plan.ModeRow, 0.1)
	all := append(SSBQueries(), RepertoireQueries()...)
	for _, q := range all {
		r14, err := e14.Exec(q.SQL)
		if err != nil {
			t.Fatalf("%s (batch): %v", q.Name, err)
		}
		rRow, err := eRow.Exec(q.SQL)
		if err != nil {
			t.Fatalf("%s (row): %v", q.Name, err)
		}
		if len(r14.Rows) != len(rRow.Rows) {
			t.Fatalf("%s: %d vs %d rows", q.Name, len(r14.Rows), len(rRow.Rows))
		}
		// Ordered queries compare row-by-row; unordered (scalar) ones too
		// since they have a single row.
		for i := range r14.Rows {
			a, b := r14.Rows[i].String(), rRow.Rows[i].String()
			if a != b && orderedQuery(q.SQL) {
				t.Fatalf("%s: row %d: %s vs %s", q.Name, i, a, b)
			}
		}
	}
}

// Every SSB dimension key is a dense integer range, so every bitmap filter
// the flight suite's hash joins publish is an exact range bitmap.
func TestSSBPublishesOnlyExactFilters(t *testing.T) {
	e := newSSBEngine(t, plan.Mode2014, 0.1)
	const exact, bloom = `apollo_hashjoin_bitmap_filters_total{kind="exact"}`, `apollo_hashjoin_bitmap_filters_total{kind="bloom"}`
	for _, q := range SSBQueries() {
		before := metrics.Default.Snapshot()
		if _, err := e.Exec(q.SQL); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		after := metrics.Default.Snapshot()
		if n := after[bloom] - before[bloom]; n != 0 {
			t.Fatalf("%s published %v Bloom filters", q.Name, n)
		}
		if after[exact] == before[exact] {
			t.Fatalf("%s published no exact filter", q.Name)
		}
	}
}

func orderedQuery(sql string) bool {
	return len(sql) > 0 // all suite queries are ordered or single-row
}

func TestCompressionDatasets(t *testing.T) {
	ds := CompressionDatasets(1000, 3)
	if len(ds) != 6 {
		t.Fatalf("datasets = %d", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		if len(d.Rows) != 1000 {
			t.Fatalf("%s: rows = %d", d.Name, len(d.Rows))
		}
		if names[d.Name] {
			t.Fatalf("duplicate dataset %s", d.Name)
		}
		names[d.Name] = true
		if d.RawBytes() <= 0 {
			t.Fatalf("%s: raw bytes = %d", d.Name, d.RawBytes())
		}
		for _, r := range d.Rows[:10] {
			if len(r) != d.Schema.Len() {
				t.Fatalf("%s: ragged row", d.Name)
			}
		}
	}
}

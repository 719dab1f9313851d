package sql

import (
	"runtime"
	"testing"

	"apollo/internal/catalog"
	"apollo/internal/plan"
	"apollo/internal/storage"
	"apollo/internal/table"
	"apollo/internal/workload"
)

// TestDeltaStatementAllocs bounds the heap allocations of statements that
// read a delta store. Delta rows are kept decoded and snapshots copy row
// references, so a statement allocates per visible-row slice, not per row: a
// return to decoding delta rows per statement or per snapshot costs one
// allocation per row and breaks these bounds by an order of magnitude.
// Unlike the benchmark's clock numbers, allocation counts do not depend on
// the host.
func TestDeltaStatementAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const groupBy = "SELECT lo_discount, SUM(lo_quantity) FROM lineorder GROUP BY lo_discount"
	cases := []struct {
		name         string
		fact         int // lineorder rows loaded (SSB SF 1 has 60,000)
		rowGroupSize int
		before       []string // unmeasured warm-up and setup
		measure      string
		maxAllocs    uint64
	}{
		// 7 compressed groups and a 2,656-row delta tail, which the delete
		// scans for its predicate.
		{"keyed delete, 2656-row delta tail", 60000, 8192,
			[]string{"DELETE FROM lineorder WHERE lo_orderkey = 1"},
			"DELETE FROM lineorder WHERE lo_orderkey = 2", 1000},
		// A delete-bitmap delete changes no delta row, so the next snapshot
		// costs what any other does.
		{"select after keyed delete, 2656-row delta tail", 60000, 8192,
			[]string{"SELECT COUNT(*) FROM lineorder WHERE lo_orderkey = 3", "DELETE FROM lineorder WHERE lo_orderkey = 2"},
			"SELECT COUNT(*) FROM lineorder WHERE lo_orderkey = 3", 1000},
		// Everything stays in one open delta store.
		{"group by after insert, 20000-row delta", 20000, 1 << 16,
			[]string{groupBy, "INSERT INTO lineorder VALUES " +
				"(90001, 1, 1, 1, DATE '1995-01-01', 5, 100, 1, 99, 50), " +
				"(90002, 1, 1, 1, DATE '1995-01-02', 6, 200, 2, 196, 60)"},
			groupBy, 2000},
	}
	data := workload.GenSSB(1, 42)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := table.DefaultOptions()
			opts.RowGroupSize = c.rowGroupSize
			cat := catalog.New(storage.NewStore(storage.DefaultBufferPoolBytes))
			lo, err := cat.Create("lineorder", workload.LineorderSchema, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := lo.BulkLoad(data.Lineorder[:c.fact]); err != nil {
				t.Fatal(err)
			}
			e := &Engine{Cat: cat, PlanOpts: plan.Options{Mode: plan.Mode2014, Parallel: 1}, TableOpts: opts}
			for _, q := range c.before {
				mustExec(t, e, q)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = e.Exec(c.measure)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			allocs := after.Mallocs - before.Mallocs
			t.Logf("%s: %d allocations, %d bytes", c.measure, allocs, after.TotalAlloc-before.TotalAlloc)
			if allocs >= c.maxAllocs {
				t.Errorf("%s allocated %d objects, want < %d (delta rows decoded per statement?)", c.measure, allocs, c.maxAllocs)
			}
		})
	}
}

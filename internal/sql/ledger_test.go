// The race detector changes what the runtime allocates, so the ledger's
// exact counts hold only in a build without it.

//go:build !race

package sql

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"apollo/internal/catalog"
	"apollo/internal/metrics"
	"apollo/internal/plan"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/table"
	"apollo/internal/txn"
	"apollo/internal/workload"
)

// The work ledger pins, per statement, the work the engine does: heap
// allocations (count and bytes) and the process-wide counters of the scan,
// planner and spill paths. Unlike clock times these numbers do not depend on
// the host, only on the Go toolchain, so a change that adds a per-row
// allocation or an extra segment open moves a line here even when the
// benchmark's timings cannot tell. Regenerate after an intentional change
// (and quote the moved lines in the change description) with
//
//	go test ./internal/sql -run TestWorkLedger -update
//
// or `make ledger`.
const ledgerPath = "testdata/ledger.golden"

// ledgerCounters are the registry series a ledger line records, summed per
// column; the rows after range and after bloom come from the statement's own
// scan stats, which the registry does not carry.
var ledgerCounters = []struct {
	col    string
	series []string
}{
	{"segments", []string{`apollo_colstore_segments_opened_total{enc="dict"}`, `apollo_colstore_segments_opened_total{enc="numeric"}`}},
	{"delta_rows", []string{"apollo_scan_delta_rows_total"}},
	{"stats", []string{"apollo_plan_stats_collections_total"}},
	{"spills", []string{"apollo_exec_spills_total"}},
}

type ledgerLine struct {
	mallocs, bytes         uint64
	afterRange, afterBloom int64
	counters               []int64
}

func (l ledgerLine) format(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-48s mallocs=%-7d bytes=%-9d after_range=%-7d after_bloom=%-7d", name, l.mallocs, l.bytes, l.afterRange, l.afterBloom)
	for i, c := range ledgerCounters {
		fmt.Fprintf(&b, " %s=%d", c.col, l.counters[i])
	}
	return b.String()
}

func (l ledgerLine) equal(o ledgerLine) bool {
	return l.format("") == o.format("")
}

// measureStmt runs one statement and returns what it cost. The registry
// snapshots sit outside the allocation window, since they allocate.
func measureStmt(t *testing.T, e *Engine, stmt string) ledgerLine {
	t.Helper()
	regBefore := metrics.Default.Snapshot()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := e.Exec(stmt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	regAfter := metrics.Default.Snapshot()
	l := ledgerLine{mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc}
	if res.Compiled != nil {
		for _, st := range res.Compiled.ScanStats {
			l.afterRange += st.RowsAfterRange
			l.afterBloom += st.RowsAfterBloom
		}
	}
	for _, c := range ledgerCounters {
		var d float64
		for _, s := range c.series {
			d += regAfter[s] - regBefore[s]
		}
		l.counters = append(l.counters, int64(d))
	}
	return l
}

// ledgerFact loads the first n SSB SF 1 (seed 42) lineorder rows into a
// fresh single-table engine and runs the setup statements.
func ledgerFact(t *testing.T, data *workload.SSBData, n, rowGroupSize int, setup ...string) *Engine {
	t.Helper()
	opts := table.DefaultOptions()
	opts.RowGroupSize = rowGroupSize
	cat := catalog.New(storage.NewStore(storage.DefaultBufferPoolBytes))
	lo, err := cat.Create("lineorder", workload.LineorderSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := lo.BulkLoad(data.Lineorder[:n]); err != nil {
		t.Fatal(err)
	}
	e := &Engine{Cat: cat, PlanOpts: plan.Options{Mode: plan.Mode2014, Parallel: 1}, TableOpts: opts}
	for _, q := range setup {
		mustExec(t, e, q)
	}
	return e
}

// ledgerSSB is the 13-query fixture: all five SSB tables at SF 1, seed 42,
// fully compressed.
func ledgerSSB(t *testing.T, data *workload.SSBData) *Engine {
	t.Helper()
	opts := table.DefaultOptions()
	opts.RowGroupSize, opts.BulkLoadThreshold = 1<<14, 4096
	cat := catalog.New(storage.NewStore(storage.DefaultBufferPoolBytes))
	if err := workload.LoadSSB(cat, data, opts); err != nil {
		t.Fatal(err)
	}
	return &Engine{Cat: cat, PlanOpts: plan.Options{Mode: plan.Mode2014, Parallel: 1}, TableOpts: opts}
}

// ledgerDims holds SSB SF 1 (seed 42) customer and supplier compressed,
// so their string columns scan dict-coded: each column in its own
// dictionary, which a self join shares and a cross-table join does not.
func ledgerDims(t *testing.T, data *workload.SSBData) *Engine {
	t.Helper()
	opts := table.DefaultOptions()
	opts.RowGroupSize, opts.BulkLoadThreshold = 1<<14, 16
	cat := catalog.New(storage.NewStore(storage.DefaultBufferPoolBytes))
	for _, d := range []struct {
		name   string
		schema *sqltypes.Schema
		rows   []sqltypes.Row
	}{{"customer", workload.CustomerSchema, data.Customer}, {"supplier", workload.SupplierSchema, data.Supplier}} {
		tb, err := cat.Create(d.name, d.schema, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.BulkLoad(d.rows); err != nil {
			t.Fatal(err)
		}
	}
	return &Engine{Cat: cat, PlanOpts: plan.Options{Mode: plan.Mode2014, Parallel: 1}, TableOpts: opts}
}

// ledgerOLTP mirrors the oltp_mvcc workload: a bulk-loaded history of
// session 0 plus one committed transaction of session 1 (two event rows and
// its balance update).
func ledgerOLTP(t *testing.T) *Engine {
	t.Helper()
	opts := table.DefaultOptions()
	opts.RowGroupSize, opts.BulkLoadThreshold = 1<<14, 4096
	cat := catalog.New(storage.NewStore(storage.DefaultBufferPoolBytes))
	txns := txn.NewManager(nil)
	cat.OnTable(func(tb *table.Table) { tb.SetClock(txns) })
	e := &Engine{Cat: cat, PlanOpts: plan.Options{Mode: plan.Mode2014, Parallel: 1}, TableOpts: opts, Txns: txns}
	mustExec(t, e, "CREATE TABLE acct (id BIGINT, bal BIGINT)")
	mustExec(t, e, "CREATE TABLE ev (id BIGINT, sess BIGINT, amt BIGINT)")
	ev, err := cat.Get("ev")
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]sqltypes.Row, 0, 20000)
	for i := 0; i < cap(rows); i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(0), sqltypes.NewInt(int64(1 + i%100))})
	}
	if err := ev.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "INSERT INTO acct VALUES (1, 0)")
	s := e.NewSession()
	for _, q := range []string{"BEGIN", "INSERT INTO ev VALUES (1000000002, 1, 17), (1000000003, 1, 71)",
		"UPDATE acct SET bal = bal + 88 WHERE id = 1", "COMMIT"} {
		if _, err := s.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	return e
}

// TestWorkLedger measures every ledger statement until two runs agree, fails
// if three more runs all disagree with them, and compares the line with the
// golden file. The runs are serial (Parallel: 1, one P) with the collector
// off, so every count is exact; the test never calls t.Parallel, because the
// registry counters are process-wide.
func TestWorkLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	header := fmt.Sprintf("# work ledger: %s %s", runtime.Version(), runtime.GOARCH)
	want := map[string]string{}
	if !*updateGolden {
		raw, err := os.ReadFile(filepath.FromSlash(ledgerPath))
		if err != nil {
			t.Fatalf("read %s: %v (regenerate with -update)", ledgerPath, err)
		}
		lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
		if lines[0] != header {
			t.Fatalf("ledger was written by %q, this is %q: regenerate with -update", lines[0], header)
		}
		for _, l := range lines[1:] {
			want[strings.Fields(l)[0]] = l
		}
	}
	// One P keeps sync.Pool hits (pools are per P) from depending on which
	// P the test goroutine last ran on.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	data := workload.GenSSB(1, 42)
	ssb := ledgerSSB(t, data)
	dims := ledgerDims(t, data)
	oltp := ledgerOLTP(t)
	const groupBy = "SELECT lo_discount, SUM(lo_quantity) FROM lineorder GROUP BY lo_discount"
	// The delete fixture has 7 compressed groups and a 2,656-row delta tail,
	// which a keyed delete scans for its predicate. A delete-bitmap delete
	// changes no delta row, so the next snapshot costs what any other does.
	// The delta fixture keeps everything in one open delta store.
	deleteFixture := ledgerFact(t, data, 60000, 8192, "SELECT COUNT(*) FROM lineorder WHERE lo_orderkey = 3", "DELETE FROM lineorder WHERE lo_orderkey = 2")
	deltaFixture := ledgerFact(t, data, 20000, 1<<16, groupBy, "INSERT INTO lineorder VALUES "+
		"(90001, 1, 1, 1, DATE '1995-01-01', 5, 100, 1, 99, 50), "+
		"(90002, 1, 1, 1, DATE '1995-01-02', 6, 200, 2, 196, 60)")
	type row struct {
		name string
		stmt string
		// engine returns the engine to run stmt on. A statement that
		// changes the table gets a fresh engine per run.
		engine func() *Engine
	}
	// The spilled fixture runs the two E10 queries of paper_claims_test.go
	// on the SSB tables under a 4 KiB grant, so hash join and aggregation
	// spill and read their partitions back.
	spilled := &Engine{Cat: ssb.Cat, TableOpts: ssb.TableOpts, PlanOpts: plan.Options{Mode: plan.Mode2014, Parallel: 1,
		MemoryBudget: 1 << 12, SpillStore: storage.NewStore(0), NoBloom: true}}
	var rows []row
	for _, q := range workload.SSBQueries() {
		rows = append(rows, row{"ssb " + q.Name, q.SQL, func() *Engine { return ssb }})
	}
	for _, q := range workload.RepertoireQueries() {
		if q.Name == "DistinctAgg" {
			rows = append(rows, row{"ssb " + q.Name, q.SQL, func() *Engine { return ssb }})
		}
	}
	rows = append(rows,
		row{"spilled join", "SELECT COUNT(*) FROM lineorder, customer WHERE lo_custkey = c_custkey",
			func() *Engine { return spilled }},
		row{"spilled group by", "SELECT lo_custkey, SUM(lo_revenue) FROM lineorder GROUP BY lo_custkey ORDER BY lo_custkey",
			func() *Engine { return spilled }},
	)
	rows = append(rows,
		row{"string-key join, shared dictionary", "SELECT COUNT(*) FROM customer a JOIN customer b ON a.c_city = b.c_city",
			func() *Engine { return dims }},
		row{"string-key join, foreign dictionary", "SELECT COUNT(*) FROM customer JOIN supplier ON c_city = s_city",
			func() *Engine { return dims }},
		row{"two-column-key join", "SELECT COUNT(*) FROM lineorder JOIN dwdate ON lo_orderdate = d_datekey AND lo_discount = d_month",
			func() *Engine { return ssb }},
		row{"oltp group by sess after commit", "SELECT sess, COUNT(*), SUM(amt) FROM ev GROUP BY sess",
			func() *Engine { return oltp }},
		row{"keyed delete, 2656-row delta tail", "DELETE FROM lineorder WHERE lo_orderkey = 2",
			func() *Engine { return ledgerFact(t, data, 60000, 8192, "DELETE FROM lineorder WHERE lo_orderkey = 1") }},
		row{"select after keyed delete, 2656-row delta tail", "SELECT COUNT(*) FROM lineorder WHERE lo_orderkey = 3",
			func() *Engine { return deleteFixture }},
		row{"group by after insert, 20000-row delta", groupBy, func() *Engine { return deltaFixture }},
	)

	var out strings.Builder
	fmt.Fprintln(&out, header)
	for _, r := range rows {
		name := strings.ReplaceAll(r.name, " ", "_")
		t.Run(r.name, func(t *testing.T) {
			var got ledgerLine
			var prev *ledgerLine
			agreed := false
			for try := 0; try < 8 && !agreed; try++ {
				l := measureStmt(t, r.engine(), r.stmt)
				agreed = prev != nil && prev.equal(l)
				prev, got = &l, l
			}
			if !agreed {
				t.Fatalf("no two consecutive runs agree; last %s", got.format(name))
			}
			// A run now and then allocates one object more: a Go map
			// splits its tables by hash bits under a per-map random seed,
			// so a large hash table's allocation count varies slightly.
			// The agreed line stands unless three more runs all miss it.
			var later []string
			for i := 0; i < 3; i++ {
				if l := measureStmt(t, r.engine(), r.stmt); !l.equal(got) {
					later = append(later, l.format("later run"))
				}
			}
			if len(later) == 3 {
				t.Fatalf("unstable after warm-up:\n%s\n%s", got.format("agreed"), strings.Join(later, "\n"))
			}
			line := got.format(name)
			fmt.Fprintln(&out, line)
			if !*updateGolden && line != want[name] {
				t.Errorf("ledger line moved:\n got  %s\n want %s", line, want[name])
			}
		})
	}
	if *updateGolden && !t.Failed() {
		if err := os.WriteFile(filepath.FromSlash(ledgerPath), []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

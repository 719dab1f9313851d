package apollo

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"apollo/internal/catalog"
	"apollo/internal/colstore"
	"apollo/internal/exec/batchexec"
	"apollo/internal/plan"
	"apollo/internal/rowstore"
	"apollo/internal/sql"
	"apollo/internal/sqltypes"
	"apollo/internal/stats"
	"apollo/internal/storage"
	"apollo/internal/table"
	"apollo/internal/workload"
)

// paperClaim is one claim of the paper's evaluation (DESIGN.md's experiment
// index). run builds its own data, or reuses the shared SSB catalog when only
// plan options differ, and asserts counts and orderings. No row reads a
// clock: the speedups the paper reports are measured by bench/.
type paperClaim struct {
	name  string
	claim string
	run   func(t *testing.T, ssb *catalog.Catalog)
}

// TestPaperClaims checks E1–E12; `-v` logs the counts each row asserts,
// which EXPERIMENTS.md quotes.
func TestPaperClaims(t *testing.T) {
	// Shared SSB warehouse at SF 0.2: 12,000 fact rows in one compressed
	// group; every dimension stays a delta store.
	ssb := catalog.New(storage.NewStore(storage.DefaultBufferPoolBytes))
	if err := workload.LoadSSB(ssb, workload.GenSSB(0.2, 42), tableOpts(1<<16, 4096, storage.None)); err != nil {
		t.Fatal(err)
	}
	for _, c := range paperClaims {
		t.Run(c.name, func(t *testing.T) {
			t.Log(c.claim)
			c.run(t, ssb)
		})
	}
}

var paperClaims = []paperClaim{
	{"E1", "Table 1: the columnstore is no larger than PAGE row storage; archival shrinks the mixed fact table further", func(t *testing.T, _ *catalog.Catalog) {
		for _, ds := range workload.CompressionDatasets(60000, 1) {
			pt := rowstore.New(storage.NewStore(0), ds.Name, ds.Schema, rowstore.Page)
			if err := pt.AppendMany(ds.Rows); err != nil {
				t.Fatal(err)
			}
			page := pt.DiskBytes()
			cs := loadTable(t, ds.Schema, ds.Rows, tableOpts(1<<16, 1, storage.None)).Stat().DiskBytes
			arch := loadTable(t, ds.Schema, ds.Rows, tableOpts(1<<16, 1, storage.Archival)).Stat().DiskBytes
			t.Logf("%-16s raw=%d page=%d cs=%d arch=%d", ds.Name, ds.RawBytes(), page, cs, arch)
			if cs > page {
				t.Errorf("%s: columnstore %d B > PAGE %d B", ds.Name, cs, page)
			}
			if ds.Name == "mixed_fact" && arch >= cs {
				t.Errorf("%s: archival %d B >= columnstore %d B", ds.Name, arch, cs)
			}
		}
	}},
	{"E2", "batch mode answers every SSB query exactly as row mode does (the speedup is clock-only: batchexec.batch_over_row_x)", func(t *testing.T, ssb *catalog.Catalog) {
		row := engineOn(ssb, plan.Options{Mode: plan.ModeRow})
		batch := engineOn(ssb, plan.Options{Mode: plan.Mode2014})
		for _, q := range workload.SSBQueries() {
			// Every suite query is ORDER BY or single-row: compare in order.
			r, b := rowStrings(mustExec(t, row, q.SQL)), rowStrings(mustExec(t, batch, q.SQL))
			if strings.Join(r, "\n") != strings.Join(b, "\n") {
				t.Errorf("%s: row mode %v, batch mode %v", q.Name, r, b)
			}
			t.Logf("%s: %d rows agree", q.Name, len(b))
		}
	}},
	{"E3", "the 2012 rules run the repertoire queries in row mode, the 2014 rules in batch mode, with the same answers", func(t *testing.T, ssb *catalog.Catalog) {
		e12 := engineOn(ssb, plan.Options{Mode: plan.Mode2012})
		e14 := engineOn(ssb, plan.Options{Mode: plan.Mode2014})
		for _, q := range workload.RepertoireQueries() {
			for _, c := range []struct {
				e    *sql.Engine
				want string
			}{{e12, "execution: row mode"}, {e14, "execution: batch mode"}} {
				if msg := mustExec(t, c.e, "EXPLAIN "+q.SQL).Message; !strings.HasPrefix(msg, c.want) {
					t.Errorf("%s: want %q, EXPLAIN says %q", q.Name, c.want, strings.SplitN(msg, "\n", 2)[0])
				}
			}
			a, b := rowStrings(mustExec(t, e12, q.SQL)), rowStrings(mustExec(t, e14, q.SQL))
			sort.Strings(a)
			sort.Strings(b)
			if strings.Join(a, "\n") != strings.Join(b, "\n") {
				t.Errorf("%s: 2012 and 2014 answers differ", q.Name)
			}
			t.Logf("%s: %d rows, row→batch", q.Name, len(b))
		}
	}},
	{"E4", "segment elimination on a date-sorted fact table skips exactly the groups outside the range", func(t *testing.T, _ *catalog.Catalog) {
		data := workload.GenSSB(1.0, 42).Lineorder // 60,000 rows: four groups of 2^14
		sort.Slice(data, func(a, b int) bool { return data[a][4].I < data[b][4].I })
		cat := catalog.New(storage.NewStore(storage.DefaultBufferPoolBytes))
		createLoaded(t, cat, "lineorder", workload.LineorderSchema, data, tableOpts(1<<14, 4096, storage.None))
		on := engineOn(cat, plan.Options{Mode: plan.Mode2014})
		off := engineOn(cat, plan.Options{Mode: plan.Mode2014, NoSegmentElimination: true})
		want := []int64{3, 3, 3, 3, 2, 0}
		for i, pct := range []int{1, 5, 10, 25, 50, 100} {
			q := fmt.Sprintf("SELECT SUM(lo_revenue) FROM lineorder WHERE lo_orderdate < DATE '%s'",
				sqltypes.DateToString(8035+int64(7*365*pct/100)))
			resOn, resOff := mustExec(t, on, q), mustExec(t, off, q)
			elim, groups := scanTotals(resOn).GroupsEliminated, scanTotals(resOn).Groups
			t.Logf("%3d%%: %d of %d groups eliminated", pct, elim, groups)
			if elim != want[i] || groups != 4 || scanTotals(resOff).GroupsEliminated != 0 {
				t.Errorf("%d%%: eliminated %d of %d (off: %d), want %d of 4 (off: 0)",
					pct, elim, groups, scanTotals(resOff).GroupsEliminated, want[i])
			}
			if a, b := rowStrings(resOn), rowStrings(resOff); a[0] != b[0] {
				t.Errorf("%d%%: elimination on %s, off %s", pct, a[0], b[0])
			}
		}
	}},
	{"E5", "the join bitmap keeps exactly the fact rows whose key the filtered dimension holds", func(t *testing.T, ssb *catalog.Catalog) {
		e := engineOn(ssb, plan.Options{Mode: plan.Mode2014})
		noBloom := engineOn(ssb, plan.Options{Mode: plan.Mode2014, NoBloom: true})
		for _, c := range []struct {
			label, pred string
			custs       int64 // of 120 customers
		}{
			{"region ASIA, 33 of 120 customers", "c_region = 'ASIA'", 33},
			{"nation CHINA, 5 of 120 customers", "c_nation = 'CHINA'", 5},
			{"one customer, 1 of 120", "c_custkey = 7", 1},
		} {
			if n := mustExec(t, e, "SELECT COUNT(*) FROM customer WHERE "+c.pred).Rows[0][0].I; n != c.custs {
				t.Errorf("%s: %d customers match", c.label, n)
			}
			st := scanTotals(mustExec(t, e, "SELECT SUM(lo_revenue) FROM lineorder, customer WHERE lo_custkey = c_custkey AND "+c.pred))
			semi := mustExec(t, noBloom, "SELECT COUNT(*) FROM lineorder LEFT SEMI JOIN customer ON lo_custkey = c_custkey AND "+c.pred).Rows[0][0].I
			t.Logf("%s: bitmap keeps %d of %d fact rows (semi join: %d)", c.label, st.RowsAfterBloom, st.RowsAfterRange, semi)
			if st.RowsAfterBloom != semi || semi < 1 || st.RowsAfterBloom >= st.RowsAfterRange {
				t.Errorf("%s: kept %d of %d, semi join %d", c.label, st.RowsAfterBloom, st.RowsAfterRange, semi)
			}
		}
	}},
	{"E6", "trickle inserts stay in delta stores until the tuple mover compresses every closed one", func(t *testing.T, _ *catalog.Catalog) {
		const n, rg = 20000, 1 << 13
		cat := catalog.New(storage.NewStore(storage.DefaultBufferPoolBytes))
		tb, err := cat.Create("lineorder", workload.LineorderSchema, tableOpts(rg, 102400, storage.None))
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.InsertMany(workload.GenSSB(float64(n)/60000, 7).Lineorder); err != nil {
			t.Fatal(err)
		}
		e := engineOn(cat, plan.Options{Mode: plan.Mode2014})
		const q = "SELECT COUNT(*), SUM(lo_revenue) FROM lineorder WHERE lo_discount >= 5"
		before, st := rowStrings(mustExec(t, e, q)), tb.Stat()
		t.Logf("no mover: delta=%d compressed=%d", st.DeltaRows, st.CompressedRows)
		if st.DeltaRows != n || st.CompressedRows != 0 {
			t.Errorf("no mover: delta %d, compressed %d; want %d, 0", st.DeltaRows, st.CompressedRows, n)
		}
		if err := tb.MoveAll(); err != nil {
			t.Fatal(err)
		}
		st = tb.Stat()
		t.Logf("after MoveAll: delta=%d compressed=%d", st.DeltaRows, st.CompressedRows)
		if st.CompressedRows != n/rg*rg || st.DeltaRows != n%rg {
			t.Errorf("after MoveAll: delta %d, compressed %d; want %d, %d", st.DeltaRows, st.CompressedRows, n%rg, n/rg*rg)
		}
		if after := rowStrings(mustExec(t, e, q)); after[0] != before[0] {
			t.Errorf("answer moved with the rows: %s vs %s", before[0], after[0])
		}
	}},
	{"E7", "a bulk load of at least the threshold compresses directly; one row fewer lands in a delta store", func(t *testing.T, _ *catalog.Catalog) {
		const threshold = 8192 // scaled-down analog of the shipped 102,400
		data := workload.GenSSB(0.2, 3).Lineorder
		for _, c := range []struct{ n, compressed, delta int }{
			{threshold - 1, 0, threshold - 1},
			{threshold, threshold, 0},
		} {
			st := loadTable(t, workload.LineorderSchema, data[:c.n], tableOpts(1<<15, threshold, storage.None)).Stat()
			t.Logf("load %d: compressed=%d delta=%d", c.n, st.CompressedRows, st.DeltaRows)
			if st.CompressedRows != c.compressed || st.DeltaRows != c.delta {
				t.Errorf("load %d: compressed %d, delta %d; want %d, %d", c.n, st.CompressedRows, st.DeltaRows, c.compressed, c.delta)
			}
		}
	}},
	{"E8", "the archival tier is smaller on disk and pays inflation on cold reads only", func(t *testing.T, _ *catalog.Catalog) {
		data := workload.GenSSB(1.0, 11).Lineorder
		const q = "SELECT SUM(lo_revenue), AVG(lo_quantity) FROM lineorder"
		var bytes, inflations [2]int64
		var answers [2]string
		for i, tier := range []storage.Compression{storage.None, storage.Archival} {
			store := storage.NewStore(storage.DefaultBufferPoolBytes)
			cat := catalog.New(store)
			tb := createLoaded(t, cat, "lineorder", workload.LineorderSchema, data, tableOpts(1<<14, 1024, tier))
			store.EvictAll()
			store.ResetStats()
			answers[i] = rowStrings(mustExec(t, engineOn(cat, plan.Options{Mode: plan.Mode2014}), q))[0]
			bytes[i], inflations[i] = int64(tb.Stat().DiskBytes), store.Stats().DecompressCalls
			t.Logf("%-8s bytes=%d cold-scan inflations=%d", tier, bytes[i], inflations[i])
		}
		if bytes[1] >= bytes[0] || inflations[0] != 0 || inflations[1] == 0 || answers[0] != answers[1] {
			t.Errorf("bytes %v, inflations %v, answers %q", bytes, inflations, answers)
		}
	}},
	{"E9", "deletes mark a bitmap: stored rows stay, live rows fall by exactly the rows deleted", func(t *testing.T, _ *catalog.Catalog) {
		data := workload.GenSSB(1.0, 13).Lineorder
		n := len(data)
		cat := catalog.New(storage.NewStore(storage.DefaultBufferPoolBytes))
		tb := createLoaded(t, cat, "lineorder", workload.LineorderSchema, data, tableOpts(1<<14, 1024, storage.None))
		e := engineOn(cat, plan.Options{Mode: plan.Mode2014})
		deleted := 0
		// Each modulus divides the one before, so the deleted sets nest:
		// after `% k` exactly n/k of the keys 1..n are gone.
		for _, k := range []int{100, 20, 4, 2} {
			res := mustExec(t, e, fmt.Sprintf("DELETE FROM lineorder WHERE lo_orderkey %% %d = 0", k))
			if res.Affected != n/k-deleted {
				t.Errorf("%%%d: deleted %d rows, want %d", k, res.Affected, n/k-deleted)
			}
			deleted = n / k
			live := mustExec(t, e, "SELECT COUNT(*) FROM lineorder").Rows[0][0].I
			st := tb.Stat()
			t.Logf("%2d%% deleted: stored=%d live=%d bitmapped=%d", 100/k, st.CompressedRows, live, st.DeletedRows)
			if st.CompressedRows != n || live != int64(n-deleted) || st.DeletedRows != deleted {
				t.Errorf("%%%d: stored %d, live %d, bitmapped %d; want %d, %d, %d", k, st.CompressedRows, live, st.DeletedRows, n, n-deleted, deleted)
			}
		}
	}},
	{"E10", "hash join and aggregation spill under a small grant and give the same answers", func(t *testing.T, ssb *catalog.Catalog) {
		queries := []string{
			"SELECT COUNT(*) FROM lineorder, customer WHERE lo_custkey = c_custkey",
			"SELECT lo_custkey, SUM(lo_revenue) FROM lineorder GROUP BY lo_custkey ORDER BY lo_custkey",
		}
		for _, q := range queries {
			var answers [2]string
			for i, grant := range []int64{0, 1 << 12} {
				res := mustExec(t, engineOn(ssb, plan.Options{Mode: plan.Mode2014, MemoryBudget: grant,
					SpillStore: storage.NewStore(0), NoBloom: true}), q)
				spills := res.Compiled.Tracker.Spills()
				answers[i] = strings.Join(rowStrings(res), "\n")
				t.Logf("grant=%d spills=%d: %.40s", grant, spills, q)
				if (grant == 0) != (spills == 0) {
					t.Errorf("grant %d: %d spills in %s", grant, spills, q)
				}
			}
			if answers[0] != answers[1] {
				t.Errorf("spilled answer differs: %s", q)
			}
		}
	}},
	{"E11", "row reordering shrinks skewed and low-cardinality columns into RLE runs and leaves unique columns alone", func(t *testing.T, _ *catalog.Catalog) {
		for _, ds := range workload.CompressionDatasets(20000, 5) {
			var bytes, rle [2]int
			for i, reorder := range []bool{false, true} {
				opts := colstore.DefaultOptions()
				opts.Reorder = reorder
				idx := colstore.NewIndex(storage.NewStore(0), ds.Schema, opts)
				g, err := idx.CompressRowGroup(colstore.BuffersFromRows(ds.Schema, ds.Rows))
				if err != nil {
					t.Fatal(err)
				}
				bytes[i] = idx.DiskBytes()
				for _, s := range g.Segs {
					if s.Comp == colstore.CompRLE {
						rle[i]++
					}
				}
			}
			t.Logf("%-16s bytes %d→%d, RLE segments %d→%d", ds.Name, bytes[0], bytes[1], rle[0], rle[1])
			switch ds.Name {
			case "skewed_ints", "lowcard_strings":
				if bytes[1] >= bytes[0] || rle != [2]int{0, 1} {
					t.Errorf("%s: bytes %v, RLE segments %v", ds.Name, bytes, rle)
				}
			case "uniform_ints", "highcard_strings":
				if bytes[1] != bytes[0] || rle[1] != rle[0] {
					t.Errorf("%s: reordering changed bytes %v, RLE segments %v", ds.Name, bytes, rle)
				}
			}
		}
	}},
	{"E12", "a bookmark-sample histogram estimates a range count within 3/sqrt(sample) of the truth", func(t *testing.T, _ *catalog.Catalog) {
		data := workload.GenSSB(1.0, 17).Lineorder
		tb := loadTable(t, workload.LineorderSchema, data, tableOpts(1<<14, 1024, storage.None))
		exact := 0
		for _, r := range data {
			if r[5].I <= 25 {
				exact++
			}
		}
		for _, n := range []int{100, 1000, 10000} {
			ts := stats.CollectWith(tb, stats.CollectOptions{SampleSize: n, Buckets: 32, Seed: 9})
			qty := ts.Cols[5]
			est := qty.Hist.FracLE(sqltypes.NewInt(25)) * float64(ts.Rows-qty.NullCount)
			relErr, bound := (est-float64(exact))/float64(exact), 3/math.Sqrt(float64(n))
			t.Logf("sample %5d: |lo_quantity <= 25| est %.0f vs %d (%+.1f%%, bound %.1f%%)", n, est, exact, 100*relErr, 100*bound)
			if ts.SampledRows != n || math.Abs(relErr) > bound {
				t.Errorf("sample %d: sampled %d rows, error %+.3f beyond %.3f", n, ts.SampledRows, relErr, bound)
			}
		}
	}},
}

func tableOpts(rowGroup, bulkThreshold int, tier storage.Compression) table.Options {
	o := table.DefaultOptions()
	o.RowGroupSize, o.BulkLoadThreshold, o.Columnstore.Tier = rowGroup, bulkThreshold, tier
	return o
}

func loadTable(t *testing.T, schema *sqltypes.Schema, rows []sqltypes.Row, o table.Options) *table.Table {
	t.Helper()
	tb := table.New(storage.NewStore(storage.DefaultBufferPoolBytes), "t", schema, o)
	if err := tb.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	return tb
}

func createLoaded(t *testing.T, cat *catalog.Catalog, name string, schema *sqltypes.Schema, rows []sqltypes.Row, o table.Options) *table.Table {
	t.Helper()
	tb, err := cat.Create(name, schema, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	return tb
}

func engineOn(cat *catalog.Catalog, o plan.Options) *sql.Engine {
	return &sql.Engine{Cat: cat, PlanOpts: o}
}

func mustExec(t *testing.T, e *sql.Engine, q string) *sql.Result {
	t.Helper()
	res, err := e.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

func rowStrings(res *sql.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	return out
}

// scanTotals sums the pushdown counters of every scan in a batch-mode plan.
func scanTotals(res *sql.Result) batchexec.ScanStats {
	var s batchexec.ScanStats
	for _, st := range res.Compiled.ScanStats {
		s.Groups += st.Groups
		s.GroupsEliminated += st.GroupsEliminated
		s.RowsAfterRange += st.RowsAfterRange
		s.RowsAfterBloom += st.RowsAfterBloom
	}
	return s
}

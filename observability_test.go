package apollo

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"apollo/internal/metrics"
)

// seedObsTable loads a sales table with compressed row groups, delta rows,
// and some deleted rows so observability counters exercise every scan path.
func seedObsTable(t *testing.T, db *DB) {
	t.Helper()
	db.MustExec("CREATE TABLE sales (id BIGINT NOT NULL, cust BIGINT, amount DOUBLE, region VARCHAR NOT NULL)")
	tb, err := db.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"north", "south", "east", "west"}
	rows := make([]Row, 1000)
	for i := range rows {
		amount := NewFloat(float64(i) / 10)
		if i%50 == 3 {
			amount = NewNull(Float64)
		}
		rows[i] = Row{NewInt(int64(i)), NewInt(int64(i % 20)), amount, NewString(regions[i%4])}
	}
	if err := tb.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	// Trickle rows stay in the delta store (mover is off in openTest).
	for i := 1000; i < 1010; i++ {
		if err := tb.Insert(Row{NewInt(int64(i)), NewInt(int64(i % 20)), NewFloat(1), NewString("delta")}); err != nil {
			t.Fatal(err)
		}
	}
	db.MustExec("DELETE FROM sales WHERE id % 100 = 7")
}

// TestQueryStatsSnapshotPerQuery is the regression test for scan and operator
// counters accumulating across ExecContext calls on a reused DB: the second
// run of an identical query must report identical stats, not doubled ones.
func TestQueryStatsSnapshotPerQuery(t *testing.T) {
	db := openTest(t)
	seedObsTable(t, db)

	queries := []string{
		"SELECT region, COUNT(*), SUM(amount) FROM sales GROUP BY region",
		"SELECT COUNT(*) FROM sales WHERE id BETWEEN 100 AND 250",
	}
	for _, q := range queries {
		r1 := db.MustExec(q)
		r2 := db.MustExec(q)
		if r1.Stats != r2.Stats {
			t.Errorf("%s:\nstats changed between identical runs:\nfirst:  %+v\nsecond: %+v", q, r1.Stats, r2.Stats)
		}
		if len(r1.Operators) != len(r2.Operators) {
			t.Fatalf("%s: operator count changed: %d vs %d", q, len(r1.Operators), len(r2.Operators))
		}
		for i := range r1.Operators {
			a, b := r1.Operators[i], r2.Operators[i]
			if a.Op != b.Op || a.Workers != b.Workers || a.Batches != b.Batches || a.Rows != b.Rows {
				t.Errorf("%s: operator %d changed between identical runs:\nfirst:  %+v\nsecond: %+v", q, i, a, b)
			}
		}
	}

	// The GROUP BY on a dict-encoded string column must report coded gathers
	// (the counters this regression was originally reported against).
	r := db.MustExec(queries[0])
	if r.Stats.StringColsCoded == 0 {
		t.Errorf("expected coded string gathers, stats = %+v", r.Stats)
	}

	// The process-wide delta-row counter moves by exactly the query's own
	// count, bumped once per delta batch.
	before := metrics.Default.Snapshot()["apollo_scan_delta_rows_total"]
	r = db.MustExec(queries[0])
	delta := metrics.Default.Snapshot()["apollo_scan_delta_rows_total"] - before
	if r.Stats.DeltaRowsScanned == 0 || int64(delta) != r.Stats.DeltaRowsScanned {
		t.Errorf("apollo_scan_delta_rows_total moved by %v, query scanned %d delta rows", delta, r.Stats.DeltaRowsScanned)
	}
}

func TestExplainAnalyzeOutput(t *testing.T) {
	db := openTest(t)
	seedObsTable(t, db)

	res, err := db.Query("EXPLAIN ANALYZE SELECT region, SUM(amount) FROM sales WHERE id < 500 GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	out := res.Message
	for _, want := range []string{
		"execution: batch mode",
		"[est=", "rows=", "batches=", "wall=",
		"groups=", "scanned=", "eliminated=", "segments=",
		"deleted=", "delta=", "out=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}
	// EXPLAIN ANALYZE executed the query, so a second plain run must agree on
	// row counts with what the annotated tree reported (smoke: non-zero scan
	// output appears).
	if strings.Contains(out, "out=0]") {
		t.Errorf("scan reported zero output rows:\n%s", out)
	}
}

func TestTraceWriterEmitsOperatorEvents(t *testing.T) {
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.RowGroupSize = 300
	cfg.BulkLoadThreshold = 50
	cfg.TupleMoverInterval = 0
	cfg.TraceWriter = &buf
	db := Open(cfg)
	defer db.Close()
	seedObsTable(t, db)

	buf.Reset() // DML above does not trace; start clean anyway
	db.MustExec("SELECT region, COUNT(*) FROM sales WHERE id < 800 GROUP BY region")

	known := map[string]bool{"open": true, "batch": true, "eos": true, "close": true, "error": true}
	counts := map[string]int{}
	var queryID uint64
	var rows int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev metrics.TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line is not valid JSON: %q: %v", line, err)
		}
		if !known[ev.Event] {
			t.Fatalf("unknown trace event %q in %q", ev.Event, line)
		}
		if ev.Op == "" {
			t.Fatalf("trace event missing op: %q", line)
		}
		if ev.TsNs < 0 {
			t.Fatalf("negative timestamp: %q", line)
		}
		if queryID == 0 {
			queryID = ev.Query
		} else if ev.Query != queryID {
			t.Fatalf("trace mixes query ids %d and %d", queryID, ev.Query)
		}
		counts[ev.Event]++
		if ev.Event == "batch" && ev.Op == "scan" {
			rows += ev.Rows
		}
	}
	if counts["open"] == 0 {
		t.Fatal("no open events traced")
	}
	if counts["open"] != counts["close"] {
		t.Errorf("unbalanced trace: %d open vs %d close events", counts["open"], counts["close"])
	}
	if counts["error"] != 0 {
		t.Errorf("unexpected error events: %v", counts)
	}
	if rows == 0 {
		t.Error("scan batch events carried no rows")
	}
}

func TestWriteMetricsIsValidPrometheusText(t *testing.T) {
	db := openTest(t)
	seedObsTable(t, db)
	db.MustExec("SELECT region, COUNT(*) FROM sales GROUP BY region")

	var buf bytes.Buffer
	if err := db.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	validatePrometheusText(t, text)

	for _, name := range []string{
		"apollo_storage_reads_total",
		"apollo_storage_writes_total",
		"apollo_scan_rows_output_total",
		"apollo_scan_row_groups_total",
		"apollo_plan_queries_compiled_total",
		"apollo_colstore_segments_opened_total",
		"apollo_colstore_decode_seconds",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metrics dump missing series %s", name)
		}
	}

	// Snapshot must agree with the engine's authoritative scan counter.
	snap := db.MetricsSnapshot()
	if snap["apollo_scan_rows_output_total"] <= 0 {
		t.Errorf("snapshot scan rows = %v, want > 0", snap["apollo_scan_rows_output_total"])
	}
}

// validatePrometheusText is a minimal Prometheus text-exposition parser: every
// sample line must be preceded by a TYPE header for its base name, histogram
// buckets must be cumulative, and _count must equal the +Inf bucket. It is a
// copy of the checker in internal/metrics so the public dump is held to the
// same format contract.
func validatePrometheusText(t *testing.T, text string) {
	t.Helper()
	typed := map[string]string{}
	type histState struct {
		lastBucket float64
		infBucket  float64
		count      float64
		hasInf     bool
	}
	hists := map[string]*histState{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatal("blank line in exposition output")
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		series := line[:sp]
		val := parseFloatOrFail(t, line[sp+1:])
		name := series
		var le string
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			labels := series[i:]
			if j := strings.Index(labels, `le="`); j >= 0 {
				rest := labels[j+4:]
				le = rest[:strings.IndexByte(rest, '"')]
			}
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok && typed[b] == "histogram" {
				base = b
			}
		}
		if typed[base] == "" {
			t.Fatalf("sample %q has no preceding TYPE header", line)
		}
		if typed[base] == "histogram" {
			h := hists[base]
			if h == nil {
				h = &histState{lastBucket: -1}
				hists[base] = h
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if val < h.lastBucket {
					t.Fatalf("histogram %s buckets not cumulative at %q", base, line)
				}
				h.lastBucket = val
				if le == "+Inf" {
					h.infBucket = val
					h.hasInf = true
					h.lastBucket = -1 // next labeled series restarts
				}
			case strings.HasSuffix(name, "_count"):
				h.count = val
			}
		}
	}
	for base, h := range hists {
		if !h.hasInf {
			t.Errorf("histogram %s has no +Inf bucket", base)
		}
		if h.count != h.infBucket {
			t.Errorf("histogram %s: _count %v != +Inf bucket %v", base, h.count, h.infBucket)
		}
	}
}

func parseFloatOrFail(t *testing.T, s string) float64 {
	t.Helper()
	switch s {
	case "+Inf":
		return 1e308
	case "-Inf":
		return -1e308
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad sample value %q: %v", s, err)
	}
	return v
}

// TestStorageFaultMetricsMatchInternalCounters drives reads under an injected
// fault load and checks the registry's deltas against the store's own
// authoritative counters — the laws hold for whatever random fault sequence
// the injector produced.
func TestStorageFaultMetricsMatchInternalCounters(t *testing.T) {
	db := openTest(t)
	seedObsTable(t, db)

	before := db.MetricsSnapshot()
	ioBefore := db.IOStats()

	db.InjectStorageFaults(FaultConfig{ReadErrorRate: 0.3, Seed: 42})
	for i := 0; i < 10; i++ {
		db.EvictCaches()
		// Queries may exhaust retries and fail; both outcomes feed counters.
		_, _ = db.Query("SELECT COUNT(*), SUM(amount) FROM sales WHERE cust < 15")
	}
	// Capture before clearing: the store reports FaultsInjected from the
	// currently attached injector.
	after := db.MetricsSnapshot()
	ioAfter := db.IOStats()
	db.ClearStorageFaults()

	delta := func(name string) int64 { return int64(after[name] - before[name]) }
	if got, want := delta("apollo_storage_retries_total"), ioAfter.Retries-ioBefore.Retries; got != want {
		t.Errorf("retry metric delta = %d, store counted %d", got, want)
	}
	if got, want := delta("apollo_storage_faults_injected_total"), ioAfter.FaultsInjected-ioBefore.FaultsInjected; got != want {
		t.Errorf("faults-injected metric delta = %d, store counted %d", got, want)
	}
	if delta("apollo_storage_faults_injected_total") == 0 {
		t.Error("fault injection produced no faults; test exercised nothing")
	}
	if got, want := delta("apollo_storage_reads_total"), ioAfter.Reads-ioBefore.Reads; got != want {
		t.Errorf("reads metric delta = %d, store counted %d", got, want)
	}
}

func TestCorruptionMetricCountsChecksumFailures(t *testing.T) {
	db := openTest(t)
	seedObsTable(t, db)

	before := db.MetricsSnapshot()
	db.EvictCaches()
	db.InjectStorageFaults(FaultConfig{CorruptionRate: 1, Seed: 7})
	_, err := db.Query("SELECT SUM(amount) FROM sales")
	db.ClearStorageFaults()
	if err == nil || !IsCorruptionError(err) {
		t.Fatalf("expected corruption error, got %v", err)
	}
	after := db.MetricsSnapshot()
	corr := after["apollo_storage_corruption_total"] - before["apollo_storage_corruption_total"]
	injected := after["apollo_storage_faults_injected_total"] - before["apollo_storage_faults_injected_total"]
	if corr < 1 {
		t.Errorf("corruption metric delta = %v, want >= 1", corr)
	}
	if corr != injected {
		t.Errorf("corruption delta %v != injected delta %v (only corruption faults were configured)", corr, injected)
	}
}

// TestMoverHealthMetricsTrackDegradeAndRecover drives the tuple mover through
// failure (injected write faults) and recovery, checking the mover gauges
// move with Health().
func TestMoverHealthMetricsTrackDegradeAndRecover(t *testing.T) {
	db := openTest(t)
	db.MustExec("CREATE TABLE ev (id BIGINT NOT NULL, v VARCHAR NOT NULL)")
	tb, err := db.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := tb.Insert(Row{NewInt(int64(i)), NewString("x")}); err != nil {
			t.Fatal(err)
		}
	}

	before := db.MetricsSnapshot()
	db.InjectStorageFaults(FaultConfig{WriteErrorRate: 1, Seed: 99})
	if err := tb.Reorganize(); err == nil {
		t.Fatal("Reorganize should fail while every write faults")
	}
	mid := db.MetricsSnapshot()
	h := tb.Health()
	if got := mid["apollo_mover_failures_total"] - before["apollo_mover_failures_total"]; got < 1 {
		t.Errorf("mover failure metric delta = %v, want >= 1", got)
	}
	if mid["apollo_mover_aborts_total"]-before["apollo_mover_aborts_total"] < 1 {
		t.Error("mover abort metric did not move on failed BuildRowGroup")
	}
	if mid["apollo_mover_backoff_seconds"] <= 0 {
		t.Errorf("backoff gauge = %v, want > 0 after failure", mid["apollo_mover_backoff_seconds"])
	}
	if got, want := mid["apollo_mover_consecutive_failures"], float64(h.ConsecutiveFailures); got != want {
		t.Errorf("consecutive-failures gauge = %v, Health reports %v", got, want)
	}

	db.ClearStorageFaults()
	if err := tb.Reorganize(); err != nil {
		t.Fatalf("Reorganize after clearing faults: %v", err)
	}
	after := db.MetricsSnapshot()
	if after["apollo_mover_moves_total"]-before["apollo_mover_moves_total"] < 1 {
		t.Error("mover moves metric did not increase on recovery")
	}
	if after["apollo_mover_backoff_seconds"] != 0 {
		t.Errorf("backoff gauge = %v after recovery, want 0", after["apollo_mover_backoff_seconds"])
	}
	if after["apollo_mover_consecutive_failures"] != 0 {
		t.Errorf("consecutive-failures gauge = %v after recovery, want 0", after["apollo_mover_consecutive_failures"])
	}
}

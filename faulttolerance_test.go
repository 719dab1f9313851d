package apollo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"apollo/internal/sched"
)

// typedFailure reports whether err is one of the structured error families
// every failed query is required to return: a transient storage fault, a
// corruption (checksum) error, a query-execution error, or a context error.
func typedFailure(err error) bool {
	return IsTransientError(err) || IsCorruptionError(err) || IsQueryError(err) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// waitForGoroutines polls until the goroutine count returns to (near) base,
// failing the test if workers leak. A small slack absorbs runtime-internal
// goroutines (timers, GC) that come and go.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: started with %d goroutines, now %d", base, runtime.NumGoroutine())
}

// loadBig creates a multi-row-group table with ngroups*500 rows.
func loadBig(t *testing.T, db *DB, name string, ngroups int) {
	t.Helper()
	schema := &Schema{Cols: []Column{
		{Name: "id", Typ: Int64},
		{Name: "v", Typ: Int64},
		{Name: "w", Typ: Float64},
	}}
	tb, err := db.CreateTable(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, ngroups*500)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i)), NewInt(int64(i % 97)), NewFloat(float64(i) * 0.5)}
	}
	if err := tb.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
}

// TestQueryDeadlineExceeded is the acceptance scenario: a query over a
// multi-row-group table under a 50ms deadline, with slow cold storage reads,
// must come back with context.DeadlineExceeded promptly and without leaking
// scan workers.
func TestQueryDeadlineExceeded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferPoolBytes = 0 // every segment read is a cold read
	cfg.RowGroupSize = 500
	cfg.BulkLoadThreshold = 100
	cfg.Parallel = 4
	cfg.TupleMoverInterval = 0
	db := Open(cfg)
	defer db.Close()
	loadBig(t, db, "big", 40)

	// ~120 slow segment reads across 4 workers blows well past 50ms.
	db.InjectStorageFaults(FaultConfig{ReadLatency: 5 * time.Millisecond})
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := db.QueryContext(ctx, "SELECT SUM(v) FROM big WHERE w >= 0")
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline response not prompt: %v", elapsed)
	}
	waitForGoroutines(t, base)
}

// TestCancelParallelScanMidStream cancels a large parallel scan while it is
// producing batches and asserts the query returns context.Canceled promptly
// and all scan workers exit.
func TestCancelParallelScanMidStream(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferPoolBytes = 0
	cfg.RowGroupSize = 500
	cfg.BulkLoadThreshold = 100
	cfg.Parallel = 4
	cfg.TupleMoverInterval = 0
	db := Open(cfg)
	defer db.Close()
	loadBig(t, db, "big", 40)

	db.InjectStorageFaults(FaultConfig{ReadLatency: 2 * time.Millisecond})
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(10*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()
	start := time.Now()
	_, err := db.QueryContext(ctx, "SELECT COUNT(*) FROM big WHERE v >= 0")
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation not prompt: %v", elapsed)
	}
	waitForGoroutines(t, base)
}

// TestChaosStorageFaults runs concurrent inserts, deletes, and scans against
// a table with a 5% storage fault rate. The process must not panic, every
// failed statement must return a structured (typed) error, and no goroutines
// may leak.
func TestChaosStorageFaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferPoolBytes = 0 // route every read through the injector
	cfg.RowGroupSize = 400
	cfg.BulkLoadThreshold = 100
	cfg.Parallel = 2
	cfg.TupleMoverInterval = 2 * time.Millisecond
	db := Open(cfg)
	defer db.Close()

	db.MustExec("CREATE TABLE chaos (id BIGINT, v BIGINT)")
	tb, err := db.Table("chaos")
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]Row, 2000)
	for i := range seed {
		seed[i] = Row{NewInt(int64(i)), NewInt(int64(i % 13))}
	}
	if err := tb.BulkLoad(seed); err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	db.InjectStorageFaults(FaultConfig{
		ReadErrorRate:  0.05,
		WriteErrorRate: 0.05,
		CorruptionRate: 0.01,
		Seed:           1,
	})

	var mu sync.Mutex
	var untyped []error
	record := func(err error) {
		if err == nil || typedFailure(err) {
			return
		}
		mu.Lock()
		untyped = append(untyped, err)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(3)
		go func(w int) { // inserter (enough rows to close delta stores, so
			// the background mover also compresses under fault load)
			defer wg.Done()
			for i := 0; i < 250; i++ {
				_, err := db.Exec(fmt.Sprintf("INSERT INTO chaos VALUES (%d, %d)", 100000+w*1000+i, i))
				record(err)
			}
		}(w)
		go func(w int) { // deleter
			defer wg.Done()
			for i := 0; i < 60; i++ {
				_, err := db.Exec(fmt.Sprintf("DELETE FROM chaos WHERE id = %d", w*800+i))
				record(err)
			}
		}(w)
		go func(w int) { // scanner
			defer wg.Done()
			for i := 0; i < 60; i++ {
				_, err := db.Query("SELECT SUM(v) FROM chaos WHERE v >= 0")
				record(err)
			}
		}(w)
	}
	wg.Wait()

	if len(untyped) > 0 {
		t.Fatalf("%d failures were not structured errors; first: %v", len(untyped), untyped[0])
	}

	// With faults cleared the engine must be fully functional again: injected
	// corruption only ever flipped bits on read-side copies, never at rest.
	db.ClearStorageFaults()
	waitForGoroutines(t, base)
	res, err := db.Query("SELECT COUNT(*) FROM chaos WHERE v >= 0")
	if err != nil {
		t.Fatalf("post-chaos query failed: %v", err)
	}
	if res.Rows[0][0].I == 0 {
		t.Fatal("post-chaos table empty")
	}
	h := tb.Health()
	t.Logf("chaos health: moves=%d failures=%d consecutive=%d lastErr=%v",
		h.Moves, h.Failures, h.ConsecutiveFailures, h.LastError)
}

// TestMoverSelfHealing drives the tuple mover into persistent write failure,
// watches the health struct report it (consecutive failures, last error,
// backoff), then clears the fault and asserts the mover recovers on its own
// with no data loss.
func TestMoverSelfHealing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RowGroupSize = 200
	cfg.TupleMoverInterval = time.Hour
	clk := new(sched.Manual)
	db := open(cfg, clk.Now)
	defer db.Close()

	schema := &Schema{Cols: []Column{{Name: "k", Typ: Int64}}}
	tb, err := db.CreateTable("heal", schema)
	if err != nil {
		t.Fatal(err)
	}

	db.InjectStorageFaults(FaultConfig{WriteErrorRate: 1, Seed: 7})
	for i := 0; i < 250; i++ { // closes one delta store at 200 rows
		if err := tb.Insert(Row{NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}

	// The kick runs the first attempt; each retry waits out the backoff,
	// which doubles per failure.
	db.sched.Settle()
	var prev time.Duration
	for want := int64(1); want <= 3; want++ {
		h := tb.Health()
		if h.Failures != want || h.Backoff <= prev || (prev > 0 && h.Backoff != 2*prev) {
			t.Fatalf("after %d failures (previous backoff %v): %+v", want, prev, h)
		}
		prev = h.Backoff
		clk.Advance(h.Backoff - time.Nanosecond)
		db.sched.Settle()
		if got := tb.Health().Failures; got != want {
			t.Fatalf("retried before the %v backoff passed: %d failures", h.Backoff, got)
		}
		clk.Advance(time.Nanosecond)
		db.sched.Settle()
	}
	h := tb.Health()
	if !h.MoverRunning || h.ConsecutiveFailures == 0 || h.LastError == nil || h.Backoff == 0 {
		t.Fatalf("unhealthy state not surfaced: %+v", h)
	}
	if !IsTransientError(h.LastError) {
		t.Fatalf("mover error not typed: %v", h.LastError)
	}

	db.ClearStorageFaults()
	clk.Advance(h.Backoff)
	db.sched.Settle()
	h = tb.Health()
	if h.ConsecutiveFailures != 0 || h.Moves < 1 || h.Backoff != 0 {
		t.Fatalf("mover did not heal: %+v", h)
	}
	res := db.MustExec("SELECT COUNT(*) FROM heal")
	if res.Rows[0][0].I != 250 {
		t.Fatalf("rows lost across mover failures: %v", res.Rows[0][0])
	}
}

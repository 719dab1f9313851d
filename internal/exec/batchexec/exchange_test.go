package batchexec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"apollo/internal/exec"
	"apollo/internal/exec/rowexec"
	"apollo/internal/expr"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/table"
	"apollo/internal/vector"
)

// exchangeDOPs are the degrees of parallelism every parity property runs at.
// DOP 1 pushes a single worker through the exchange machinery (same code path,
// no concurrency); 2 and 8 exercise real interleaving — 8 deliberately exceeds
// the row-group count of some test tables so idle workers drain cleanly.
var exchangeDOPs = []int{1, 2, 8}

// parallelAggOver wraps src in a SharedSource with dop bare worker views — the
// minimal exchange shape, no replicated stages.
func parallelAggOver(src Operator, dop int, groupBy []int, names []string, aggs []exec.AggSpec) *ParallelAgg {
	shared := NewSharedSource(src)
	pipes := make([]Operator, dop)
	for w := range pipes {
		pipes[w] = shared.Worker()
	}
	return NewParallelAgg(shared, pipes, groupBy, names, aggs)
}

func drainRows(t *testing.T, op Operator) []sqltypes.Row {
	t.Helper()
	rows, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// waitForGoroutines polls until the goroutine count returns to (near) base,
// failing the test if exchange workers leak.
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

// loadColdTable loads rows into a table over a store with no buffer pool, so
// every scan read reaches the store — and any fault injector attached to it.
func loadColdTable(t *testing.T, rows []sqltypes.Row) (*table.Table, *storage.Store) {
	t.Helper()
	store := storage.NewStore(0)
	opts := table.Options{RowGroupSize: 200, BulkLoadThreshold: 100, Columnstore: table.DefaultOptions().Columnstore}
	tb := table.New(store, "cold", testSchema(), opts)
	if _, err := tb.BulkLoad(context.Background(), rows); err != nil {
		t.Fatal(err)
	}
	return tb, store
}

// Property: parallel partial/final aggregation matches the serial HashAgg on
// every grouping shape — integer fast path, string (dict-code) fast path,
// scalar aggregation, and the generic multi-key path — at every DOP.
func TestParallelAggParityShapes(t *testing.T) {
	rows := makeRows(6000, 31)
	tb := loadTable(t, rows)

	priceAggs := func(col int) []exec.AggSpec {
		arg := expr.NewColRef(col, "price", sqltypes.Float64)
		return []exec.AggSpec{
			{Kind: exec.CountStar, Name: "n"},
			{Kind: exec.Count, Arg: arg, Name: "c"},
			{Kind: exec.Sum, Arg: arg, Name: "s"},
			{Kind: exec.Avg, Arg: arg, Name: "a"},
			{Kind: exec.Min, Arg: arg, Name: "lo"},
			{Kind: exec.Max, Arg: arg, Name: "hi"},
		}
	}
	shapes := []struct {
		name    string
		cols    []int
		groupBy []int
		keys    []string
		aggs    []exec.AggSpec
	}{
		{"int-key", []int{1, 2}, []int{0}, []string{"grp"}, priceAggs(1)},
		{"string-key", []int{2, 3}, []int{1}, []string{"region"}, priceAggs(0)},
		{"scalar", []int{2}, nil, nil, priceAggs(0)},
		{"multi-key", []int{1, 3, 2}, []int{0, 1}, []string{"grp", "region"}, priceAggs(2)},
	}
	for _, sh := range shapes {
		serial := NewHashAgg(NewScan(tb.Snapshot(), sh.cols), sh.groupBy, sh.keys, sh.aggs)
		want := drainRows(t, serial)
		for _, dop := range exchangeDOPs {
			pagg := parallelAggOver(NewScan(tb.Snapshot(), sh.cols), dop, sh.groupBy, sh.keys, sh.aggs)
			got := drainRows(t, pagg)
			assertSameRows(t, fmt.Sprintf("%s dop=%d", sh.name, dop), got, want)
		}
	}
}

// Property: replicated per-worker filter/project stages above the shared
// source (the shape the planner emits) produce the same result as the serial
// filter/project/aggregate chain.
func TestParallelAggReplicatedStages(t *testing.T) {
	rows := makeRows(5000, 37)
	tb := loadTable(t, rows)

	pred := func() expr.Expr {
		return expr.NewCmp(expr.LT, expr.NewColRef(0, "grp", sqltypes.Int64), expr.NewConst(sqltypes.NewInt(25)))
	}
	proj := func() ([]expr.Expr, []string) {
		return []expr.Expr{
			expr.NewColRef(2, "region", sqltypes.String),
			expr.NewColRef(1, "price", sqltypes.Float64),
		}, []string{"region", "price"}
	}
	aggs := []exec.AggSpec{
		{Kind: exec.CountStar, Name: "n"},
		{Kind: exec.Sum, Arg: expr.NewColRef(1, "price", sqltypes.Float64), Name: "s"},
	}

	exprs, names := proj()
	serial := NewHashAgg(
		NewProject(&Filter{In: NewScan(tb.Snapshot(), []int{1, 2, 3}), Pred: pred()}, exprs, names),
		[]int{0}, []string{"region"}, aggs)
	want := drainRows(t, serial)

	for _, dop := range exchangeDOPs {
		shared := NewSharedSource(NewScan(tb.Snapshot(), []int{1, 2, 3}))
		pipes := make([]Operator, dop)
		for w := range pipes {
			exprs, names := proj()
			pipes[w] = NewProject(&Filter{In: shared.Worker(), Pred: pred()}, exprs, names)
		}
		got := drainRows(t, NewParallelAgg(shared, pipes, []int{0}, []string{"region"}, aggs))
		assertSameRows(t, fmt.Sprintf("replicated stages dop=%d", dop), got, want)
	}
}

// Property: parallel aggregation over a coded string column agrees with the
// row engine (not just the serial batch engine), NULL group included.
func TestParallelAggRowEngineParity(t *testing.T) {
	cats := []string{"north", "south", "east", "west", "axis", "blade", "crest", "dune"}
	tb := loadStrTable(t, makeStrRows(5000, 613, cats))

	rScan := rowexec.NewScan(tb.Snapshot(), nil, []int{1, 2})
	want := rowModeRows(t, rowexec.NewHashAggregate(rScan,
		[]expr.Expr{expr.NewColRef(0, "cat", sqltypes.String)}, []string{"cat"}, catAggs))

	for _, dop := range exchangeDOPs {
		got := gotRows(t, parallelAggOver(NewScan(tb.Snapshot(), []int{1, 2}), dop, []int{0}, []string{"cat"}, catAggs))
		if !mapsEqual(got, want) {
			t.Fatalf("dop=%d: parallel string GROUP BY diverged from row engine: %d vs %d keys", dop, len(got), len(want))
		}
	}
}

// Property: parallel aggregation under a tiny shared memory grant spills and
// still matches the unconstrained serial result. This exercises the
// non-disjoint merge: a group can be in-memory in one worker and spilled by
// another, so the final merge must fold spilled rows across all partitions.
func TestParallelAggSpillParity(t *testing.T) {
	cats := []string{"red", "orange", "yellow", "green", "blue", "indigo", "violet"}
	tb := loadStrTable(t, makeStrRows(3000, 617, cats))

	want := drainRows(t, NewHashAgg(NewScan(tb.Snapshot(), []int{1, 2}), []int{0}, []string{"cat"}, catAggs))

	for _, dop := range []int{2, 8} {
		pagg := parallelAggOver(NewScan(tb.Snapshot(), []int{1, 2}), dop, []int{0}, []string{"cat"}, catAggs)
		pagg.Tracker = NewTracker(1 << 10)
		pagg.SpillStore = storage.NewStore(0)
		got := drainRows(t, pagg)
		if pagg.Tracker.Spills() == 0 {
			t.Fatalf("dop=%d: parallel aggregation did not spill under a 1 KiB grant", dop)
		}
		assertSameRows(t, fmt.Sprintf("spill dop=%d", dop), got, want)
	}
}

// ParallelizableAggs must reject DISTINCT aggregates: their per-group value
// sets cannot be merged by adding partial counts and sums.
func TestParallelizableAggs(t *testing.T) {
	plain := []exec.AggSpec{{Kind: exec.CountStar, Name: "n"},
		{Kind: exec.Sum, Arg: expr.NewColRef(0, "v", sqltypes.Int64), Name: "s"}}
	if !ParallelizableAggs(plain) {
		t.Fatal("plain aggregates reported non-parallelizable")
	}
	distinct := append(append([]exec.AggSpec{}, plain...),
		exec.AggSpec{Kind: exec.Count, Arg: expr.NewColRef(0, "v", sqltypes.Int64), Distinct: true, Name: "d"})
	if ParallelizableAggs(distinct) {
		t.Fatal("DISTINCT aggregate reported parallelizable")
	}
}

// errAfterOp yields batches from its child until limit batches have passed,
// then fails. Used to test SharedSource error stickiness.
type errAfterOp struct {
	in    Operator
	limit int
	calls int
}

func (e *errAfterOp) Schema() *sqltypes.Schema       { return e.in.Schema() }
func (e *errAfterOp) Open(ctx context.Context) error { return e.in.Open(ctx) }
func (e *errAfterOp) Close() error                   { return e.in.Close() }
func (e *errAfterOp) Next() (*vector.Batch, error) {
	e.calls++
	if e.calls > e.limit {
		return nil, errors.New("synthetic source failure")
	}
	return e.in.Next()
}

// SharedSource must hand each batch to exactly one worker, report end-of-stream
// to every worker, and make the first error sticky without touching the child
// again.
func TestSharedSourceStickiness(t *testing.T) {
	tb := loadTable(t, makeRows(2000, 41))

	// Clean end-of-stream: total rows across workers equal the serial scan.
	shared := NewSharedSource(NewScan(tb.Snapshot(), []int{0}))
	if err := shared.Base().Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	shared.Reset()
	ws := []Operator{shared.Worker(), shared.Worker(), shared.Worker()}
	for _, w := range ws {
		if err := w.Open(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	done := 0
	for done < len(ws) {
		done = 0
		for _, w := range ws {
			b, err := w.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				done++
				continue
			}
			total += b.Len()
		}
	}
	shared.Base().Close()
	want := len(drainRows(t, NewScan(tb.Snapshot(), []int{0})))
	if total != want {
		t.Fatalf("workers saw %d rows, serial scan %d", total, want)
	}

	// Error stickiness: after the child fails once, every worker observes the
	// same error and the child's Next is never called again.
	src := &errAfterOp{in: NewScan(tb.Snapshot(), []int{0}), limit: 1}
	shared = NewSharedSource(src)
	if err := shared.Base().Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer shared.Base().Close()
	shared.Reset()
	w := shared.Worker()
	if err := w.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Next(); err != nil {
		t.Fatalf("first batch failed early: %v", err)
	}
	if _, err := w.Next(); err == nil {
		t.Fatal("expected synthetic failure")
	}
	callsAtFailure := src.calls
	for i := 0; i < 3; i++ {
		if _, err := w.Next(); err == nil {
			t.Fatal("error did not stick")
		}
	}
	if src.calls != callsAtFailure {
		t.Fatalf("child Next called %d more times after failure", src.calls-callsAtFailure)
	}
}

// Property: the partitioned parallel hash join matches the serial join for
// every join type on string keys across two distinct dictionaries (the
// cross-dictionary translation path), at every DOP.
func TestParallelJoinParityTypes(t *testing.T) {
	probeCats := []string{"north", "south", "east", "west", "inland", "offshore"}
	buildCats := []string{"east", "west", "inland", "highland", "lowland"}
	ptb := loadStrTable(t, makeStrRows(1500, 701, probeCats))
	btb := loadStrTable(t, makeStrRows(500, 703, buildCats))

	mkJoin := func(jt exec.JoinType, dop int) *HashJoin {
		j, err := NewHashJoin(
			NewScan(ptb.Snapshot(), []int{0, 1}), NewScan(btb.Snapshot(), []int{1, 2}),
			[]int{1}, []int{0}, jt, nil)
		if err != nil {
			t.Fatal(err)
		}
		j.Parallel = dop
		return j
	}
	for _, jt := range []exec.JoinType{exec.Inner, exec.LeftOuter, exec.RightOuter, exec.FullOuter, exec.LeftSemi, exec.LeftAnti} {
		want := drainRows(t, mkJoin(jt, 0))
		for _, dop := range exchangeDOPs {
			got := drainRows(t, mkJoin(jt, dop))
			assertSameRows(t, fmt.Sprintf("%v dop=%d", jt, dop), got, want)
		}
	}
}

// Property: integer-key joins partition consistently between build and probe
// sides (canonical int hashing), matching the serial join at every DOP.
func TestParallelJoinIntKeyParity(t *testing.T) {
	ptb := loadTable(t, makeRows(900, 809))
	btb := loadTable(t, makeRows(300, 811))

	mkJoin := func(jt exec.JoinType, dop int) *HashJoin {
		j, err := NewHashJoin(
			NewScan(ptb.Snapshot(), []int{0, 1}), NewScan(btb.Snapshot(), []int{1, 2}),
			[]int{1}, []int{0}, jt, nil)
		if err != nil {
			t.Fatal(err)
		}
		j.Parallel = dop
		return j
	}
	for _, jt := range []exec.JoinType{exec.Inner, exec.FullOuter} {
		want := drainRows(t, mkJoin(jt, 0))
		for _, dop := range exchangeDOPs {
			got := drainRows(t, mkJoin(jt, dop))
			assertSameRows(t, fmt.Sprintf("int %v dop=%d", jt, dop), got, want)
		}
	}
}

// Property: residual predicates (evaluated over the probe++build layout inside
// each partition core) survive partitioning.
func TestParallelJoinResidualParity(t *testing.T) {
	cats := []string{"alpha", "beta", "gamma", "delta"}
	ptb := loadStrTable(t, makeStrRows(1000, 821, cats))
	btb := loadStrTable(t, makeStrRows(400, 823, cats))

	for _, jt := range []exec.JoinType{exec.Inner, exec.LeftOuter} {
		mk := func(dop int) *HashJoin {
			// Layout: probe [id, cat] ++ build [cat, val]; keep pairs where the
			// build-side val stays under 500.
			res := expr.NewCmp(expr.LT, expr.NewColRef(3, "val", sqltypes.Int64), expr.NewConst(sqltypes.NewInt(500)))
			j, err := NewHashJoin(
				NewScan(ptb.Snapshot(), []int{0, 1}), NewScan(btb.Snapshot(), []int{1, 2}),
				[]int{1}, []int{0}, jt, res)
			if err != nil {
				t.Fatal(err)
			}
			j.Parallel = dop
			return j
		}
		want := drainRows(t, mk(0))
		for _, dop := range exchangeDOPs {
			assertSameRows(t, fmt.Sprintf("residual %v dop=%d", jt, dop), drainRows(t, mk(dop)), want)
		}
	}
}

// Property: a self join (both sides share one dictionary — the pure code-space
// probe path) stays correct under partitioning.
func TestParallelSelfJoinParity(t *testing.T) {
	cats := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	tb := loadStrTable(t, makeStrRows(800, 827, cats))

	mk := func(dop int) *HashJoin {
		j, err := NewHashJoin(
			NewScan(tb.Snapshot(), []int{0, 1}), NewScan(tb.Snapshot(), []int{1}),
			[]int{1}, []int{0}, exec.Inner, nil)
		if err != nil {
			t.Fatal(err)
		}
		j.Parallel = dop
		return j
	}
	want := drainRows(t, mk(0))
	for _, dop := range exchangeDOPs {
		assertSameRows(t, fmt.Sprintf("self join dop=%d", dop), drainRows(t, mk(dop)), want)
	}
}

// Property: when the build side overflows its memory grant, a Parallel join
// falls back to the serial grace-hash spill path and stays correct.
func TestParallelJoinSpillFallbackParity(t *testing.T) {
	cats := []string{"red", "orange", "yellow", "green", "blue"}
	ptb := loadStrTable(t, makeStrRows(1200, 829, cats))
	btb := loadStrTable(t, makeStrRows(600, 839, cats))

	mk := func(dop int, grant int64) *HashJoin {
		j, err := NewHashJoin(
			NewScan(ptb.Snapshot(), []int{0, 1}), NewScan(btb.Snapshot(), []int{1, 2}),
			[]int{1}, []int{0}, exec.FullOuter, nil)
		if err != nil {
			t.Fatal(err)
		}
		j.Parallel = dop
		if grant > 0 {
			j.Tracker = NewTracker(grant)
			j.SpillStore = storage.NewStore(0)
		}
		return j
	}
	want := drainRows(t, mk(0, 0))
	for _, dop := range []int{2, 8} {
		j := mk(dop, 1<<10)
		got := drainRows(t, j)
		if j.Tracker.Spills() == 0 {
			t.Fatalf("dop=%d: join did not spill under a 1 KiB grant", dop)
		}
		if j.par != nil {
			t.Fatalf("dop=%d: spilled join still holds parallel probe state", dop)
		}
		assertSameRows(t, fmt.Sprintf("spill fallback dop=%d", dop), got, want)
	}
}

// Cancellation mid-pipeline: a parallel aggregation over slow cold reads must
// return context.Canceled promptly and leak no exchange workers.
func TestParallelAggCancellation(t *testing.T) {
	tb, store := loadColdTable(t, makeRows(4000, 907))
	store.SetFaultInjector(storage.NewFaultInjector(storage.FaultConfig{ReadLatency: 2 * time.Millisecond, Seed: 1}))
	base := runtime.NumGoroutine()

	aggs := []exec.AggSpec{{Kind: exec.CountStar, Name: "n"},
		{Kind: exec.Sum, Arg: expr.NewColRef(1, "price", sqltypes.Float64), Name: "s"}}
	pagg := parallelAggOver(NewScan(tb.Snapshot(), []int{1, 2}), 8, []int{0}, []string{"grp"}, aggs)

	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(5*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()
	start := time.Now()
	_, err := DrainContext(ctx, pagg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation not prompt: %v", elapsed)
	}
	waitForGoroutines(t, base)
}

// Cancellation mid-probe: a partitioned parallel join canceled while the probe
// exchange is streaming must return context.Canceled and shut down splitters,
// probers, and the gather channel.
func TestParallelJoinCancellation(t *testing.T) {
	ptb, store := loadColdTable(t, makeRows(4000, 911))
	btb := loadTable(t, makeRows(200, 913))
	store.SetFaultInjector(storage.NewFaultInjector(storage.FaultConfig{ReadLatency: 2 * time.Millisecond, Seed: 2}))
	base := runtime.NumGoroutine()

	j, err := NewHashJoin(
		NewScan(ptb.Snapshot(), []int{0, 1}), NewScan(btb.Snapshot(), []int{1, 2}),
		[]int{1}, []int{0}, exec.Inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Parallel = 8

	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(10*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()
	start := time.Now()
	_, derr := DrainContext(ctx, j)
	if !errors.Is(derr, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", derr)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation not prompt: %v", elapsed)
	}
	waitForGoroutines(t, base)
}

// Fault-injected scans under a parallel aggregation: a hard read-fault rate
// must surface promptly as a typed transient storage error from the exchange,
// not hang or leak workers.
func TestParallelAggFaultInjection(t *testing.T) {
	tb, store := loadColdTable(t, makeRows(3000, 919))
	store.SetRetryPolicy(storage.RetryPolicy{MaxAttempts: 1})
	store.SetFaultInjector(storage.NewFaultInjector(storage.FaultConfig{ReadErrorRate: 1, Seed: 3}))
	base := runtime.NumGoroutine()

	aggs := []exec.AggSpec{{Kind: exec.CountStar, Name: "n"}}
	pagg := parallelAggOver(NewScan(tb.Snapshot(), []int{1}), 8, []int{0}, []string{"grp"}, aggs)
	start := time.Now()
	_, err := Drain(pagg)
	if err == nil {
		t.Fatal("expected injected read fault to surface")
	}
	if !storage.IsTransient(err) {
		t.Fatalf("fault not typed as transient: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("fault response not prompt: %v", elapsed)
	}
	waitForGoroutines(t, base)
}

// Fault-injected scans under a partitioned parallel join: same contract on the
// probe exchange path.
func TestParallelJoinFaultInjection(t *testing.T) {
	btb := loadTable(t, makeRows(200, 929))
	ptb, store := loadColdTable(t, makeRows(3000, 937))
	store.SetRetryPolicy(storage.RetryPolicy{MaxAttempts: 1})
	injector := storage.NewFaultInjector(storage.FaultConfig{ReadErrorRate: 1, Seed: 4})
	base := runtime.NumGoroutine()

	j, err := NewHashJoin(
		NewScan(ptb.Snapshot(), []int{0, 1}), NewScan(btb.Snapshot(), []int{1, 2}),
		[]int{1}, []int{0}, exec.Inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Parallel = 8

	// Arm the injector only after Open has drained the (fault-free) build side
	// would be ideal, but the build table lives on a separate healthy store, so
	// injecting now only hits the probe-side scans.
	store.SetFaultInjector(injector)
	start := time.Now()
	_, derr := Drain(j)
	if derr == nil {
		t.Fatal("expected injected read fault to surface")
	}
	if !storage.IsTransient(derr) {
		t.Fatalf("fault not typed as transient: %v", derr)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("fault response not prompt: %v", elapsed)
	}
	waitForGoroutines(t, base)
}

// Concurrent independent parallel operators over one snapshot must not
// interfere (shared dictionaries, shared store): run several parallel aggs and
// joins at once and check each against the serial answer.
func TestParallelOperatorsConcurrently(t *testing.T) {
	cats := []string{"north", "south", "east", "west"}
	tb := loadStrTable(t, makeStrRows(2000, 941, cats))

	aggWant := rowMultiset(drainRows(t, NewHashAgg(NewScan(tb.Snapshot(), []int{1, 2}), []int{0}, []string{"cat"}, catAggs)))
	mkJoin := func(dop int) *HashJoin {
		j, err := NewHashJoin(
			NewScan(tb.Snapshot(), []int{0, 1}), NewScan(tb.Snapshot(), []int{1}),
			[]int{1}, []int{0}, exec.LeftSemi, nil)
		if err != nil {
			t.Fatal(err)
		}
		j.Parallel = dop
		return j
	}
	joinWant := rowMultiset(drainRows(t, mkJoin(0)))

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			rows, err := Drain(parallelAggOver(NewScan(tb.Snapshot(), []int{1, 2}), 4, []int{0}, []string{"cat"}, catAggs))
			if err != nil {
				errCh <- err
				return
			}
			if d := multisetDiff(rowMultiset(rows), aggWant); d != "" {
				errCh <- fmt.Errorf("concurrent agg diverged:\n%s", d)
			}
		}()
		go func() {
			defer wg.Done()
			j := mkJoin(4)
			rows, err := Drain(j)
			if err != nil {
				errCh <- err
				return
			}
			if d := multisetDiff(rowMultiset(rows), joinWant); d != "" {
				errCh <- fmt.Errorf("concurrent join diverged:\n%s", d)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

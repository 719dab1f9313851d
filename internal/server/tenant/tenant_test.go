package tenant

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apollo"
	"apollo/internal/sched"
)

func testConfig(t *testing.T, root string) Config {
	t.Helper()
	cfg := apollo.DefaultConfig()
	cfg.TupleMoverInterval = 0 // keep background churn out of lifecycle tests
	return Config{Root: root, Template: cfg}
}

// newManager returns a manager whose janitor runs on a scheduler reading a
// Manual clock, stopped when the test ends: a test moves the clock and
// calls Settle.
func newManager(t *testing.T, cfg Config) (*Manager, *sched.Manual, *sched.Scheduler) {
	t.Helper()
	clk := new(sched.Manual)
	s := sched.New(clk.Now)
	t.Cleanup(s.Stop)
	return New(cfg, s), clk, s
}

func mustExec(t *testing.T, db *apollo.DB, stmt string) *apollo.Result {
	t.Helper()
	res, err := db.Exec(stmt)
	if err != nil {
		t.Fatalf("exec %q: %v", stmt, err)
	}
	return res
}

func TestLazyOpenAndReuse(t *testing.T) {
	root := t.TempDir()
	m, _, _ := newManager(t, testConfig(t, root))
	defer m.Close()

	ctx := context.Background()
	h1, err := m.Get(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, h1.DB(), "CREATE TABLE t (a BIGINT)")
	mustExec(t, h1.DB(), "INSERT INTO t VALUES (1)")

	// Second lease sees the same instance.
	h2, err := m.Get(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if h1.DB() != h2.DB() {
		t.Fatal("second Get returned a different DB instance")
	}
	if got := m.OpenCount(); got != 1 {
		t.Fatalf("OpenCount = %d, want 1", got)
	}
	h1.Release()
	h2.Release()

	// The tenant directory exists on disk under root.
	if _, err := os.Stat(root + "/acme"); err != nil {
		t.Fatalf("tenant dir: %v", err)
	}
}

func TestInvalidNames(t *testing.T) {
	m, _, _ := newManager(t, testConfig(t, t.TempDir()))
	defer m.Close()
	for _, name := range []string{"", "../etc", "a/b", "UPPER", "x y", "héllo"} {
		if _, err := m.Get(context.Background(), name); !errors.Is(err, ErrBadName) {
			t.Errorf("Get(%q) err = %v, want ErrBadName", name, err)
		}
	}
}

// TestRecoveryOnFirstRequest writes through one manager, shuts it down, and
// verifies a fresh manager recovers the tenant's data on the first Get — the
// crash-restart path a server hits when a tenant's first request arrives
// after a process restart. The WAL left by the first instance must be
// replayed (there is no checkpoint), which is exactly what recovery does
// after a crash.
func TestRecoveryOnFirstRequest(t *testing.T) {
	root := t.TempDir()
	ctx := context.Background()

	m1, _, _ := newManager(t, testConfig(t, root))
	h, err := m1.Get(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, h.DB(), "CREATE TABLE t (a BIGINT)")
	mustExec(t, h.DB(), "INSERT INTO t VALUES (1), (2), (3)")
	h.Release()
	m1.Close()

	m2, _, _ := newManager(t, testConfig(t, root))
	defer m2.Close()
	h2, err := m2.Get(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	rec := h2.DB().RecoveryInfo()
	if rec.ReplayedRecords == 0 {
		t.Fatalf("expected WAL replay on first request, got %+v", rec)
	}
	res := mustExec(t, h2.DB(), "SELECT COUNT(*) FROM t")
	if got := res.Rows[0][0].I; got != 3 {
		t.Fatalf("recovered row count = %d, want 3", got)
	}
}

// TestCorruptTenantIsolated damages one tenant's WAL beyond repair and
// verifies its open fails with a typed error while another tenant keeps
// serving — and that repairing the directory heals it on the next request
// (no negative caching).
func TestCorruptTenantIsolated(t *testing.T) {
	root := t.TempDir()
	ctx := context.Background()
	m, _, _ := newManager(t, testConfig(t, root))
	defer m.Close()

	for _, name := range []string{"good", "bad"} {
		h, err := m.Get(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, h.DB(), "CREATE TABLE t (a BIGINT)")
		mustExec(t, h.DB(), "INSERT INTO t VALUES (7)")
		h.Release()
	}
	m.Close()

	// Corrupt the middle of bad's WAL (mid-log damage is ErrCorrupt, not a
	// truncatable torn tail).
	walDir := root + "/bad/wal"
	ents, err := os.ReadDir(walDir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("wal dir: %v (%d entries)", err, len(ents))
	}
	seg := walDir + "/" + ents[0].Name()
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	pristine := append([]byte(nil), data...)
	for i := 20; i < len(data)-20 && i < 200; i++ {
		data[i] ^= 0xFF
	}
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, _, _ := newManager(t, testConfig(t, root))
	defer m2.Close()
	if _, err := m2.Get(ctx, "bad"); err == nil {
		t.Fatal("corrupt tenant opened without error")
	}
	hg, err := m2.Get(ctx, "good")
	if err != nil {
		t.Fatalf("healthy tenant affected by sibling corruption: %v", err)
	}
	res := mustExec(t, hg.DB(), "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].I != 1 {
		t.Fatal("healthy tenant lost data")
	}
	hg.Release()

	// Repair bad and verify it heals without restarting the manager.
	if err := os.WriteFile(seg, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	hb, err := m2.Get(ctx, "bad")
	if err != nil {
		t.Fatalf("repaired tenant still failing: %v", err)
	}
	hb.Release()
}

// TestLRUEviction opens more tenants than MaxOpen allows and verifies the
// least-recently-used idle handle is closed, busy handles survive, and an
// evicted tenant transparently reopens (with its data) on the next request.
func TestLRUEviction(t *testing.T) {
	root := t.TempDir()
	ctx := context.Background()
	cfg := testConfig(t, root)
	cfg.MaxOpen = 2
	m, _, _ := newManager(t, cfg)
	defer m.Close()

	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("t%d", i)
		h, err := m.Get(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, h.DB(), "CREATE TABLE x (a BIGINT)")
		mustExec(t, h.DB(), fmt.Sprintf("INSERT INTO x VALUES (%d)", i))
		h.Release()
	}
	if got := m.OpenCount(); got != 2 {
		t.Fatalf("OpenCount after overflow = %d, want 2", got)
	}

	// t0 was evicted (LRU); reopening recovers its data.
	h, err := m.Get(ctx, "t0")
	if err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, h.DB(), "SELECT a FROM x")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 {
		t.Fatalf("reopened t0 rows = %v", res.Rows)
	}
	h.Release()
}

// TestEvictionSparesBusyHandles pins every tenant and verifies nothing is
// closed under in-flight leases even when the cache is over its bound, then
// that the bound settles once leases are released.
func TestEvictionSparesBusyHandles(t *testing.T) {
	root := t.TempDir()
	ctx := context.Background()
	cfg := testConfig(t, root)
	cfg.MaxOpen = 1
	m, _, _ := newManager(t, cfg)
	defer m.Close()

	var held []*Handle
	for i := 0; i < 3; i++ {
		h, err := m.Get(ctx, fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, h)
	}
	if got := m.OpenCount(); got != 3 {
		t.Fatalf("busy handles evicted: OpenCount = %d, want 3", got)
	}
	for _, h := range held {
		if h.DB().Closed() {
			t.Fatal("busy handle's DB closed under lease")
		}
		h.Release()
	}
	if got := m.OpenCount(); got != 1 {
		t.Fatalf("OpenCount after releases = %d, want 1", got)
	}
}

// The janitor closes a tenant once it has gone unleased for longer than
// IdleTimeout: not on the sweep at exactly the timeout, but on the next.
func TestIdleClose(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.IdleTimeout = 40 * time.Millisecond
	m, clk, s := newManager(t, cfg)
	defer m.Close()

	h, err := m.Get(context.Background(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	db := h.DB()
	h.Release()
	clk.Advance(cfg.IdleTimeout)
	s.Settle()
	if m.OpenCount() != 1 || db.Closed() {
		t.Fatal("tenant closed at exactly its idle timeout")
	}
	clk.Advance(SweepPeriod(cfg.IdleTimeout))
	s.Settle()
	if m.OpenCount() != 0 || !db.Closed() {
		t.Fatal("tenant idle past its timeout still open after a sweep")
	}
}

// A 1ns IdleTimeout gets the 10ms sweep floor: the janitor is neither
// always due (Settle would spin) nor run before the floor has passed.
func TestIdleCloseTinyTimeout(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.IdleTimeout = time.Nanosecond
	m, clk, s := newManager(t, cfg)
	defer m.Close()

	h, err := m.Get(context.Background(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	now := clk.Now()
	if at := m.janitor.Due(now, now, false); !at.Equal(now.Add(10 * time.Millisecond)) {
		t.Fatalf("janitor due %v after its run, want 10ms", at.Sub(now))
	}
	clk.Advance(10*time.Millisecond - 1)
	s.Settle()
	if m.OpenCount() != 1 {
		t.Fatal("tenant closed before the 10ms sweep floor")
	}
	clk.Advance(1)
	s.Settle()
	if m.OpenCount() != 0 {
		t.Fatal("tenant still open after the first sweep")
	}
}

// The janitor never closes a leased handle however long it idles; once the
// lease is back, the idle time counts from the release.
func TestIdleCloseSparesLeased(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.IdleTimeout = 40 * time.Millisecond
	m, clk, s := newManager(t, cfg)
	defer m.Close()

	h, err := m.Get(context.Background(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	db := h.DB()
	clk.Advance(10 * cfg.IdleTimeout)
	s.Settle()
	if m.OpenCount() != 1 || db.Closed() {
		t.Fatal("janitor closed a leased tenant")
	}
	h.Release()
	clk.Advance(cfg.IdleTimeout)
	s.Settle()
	if m.OpenCount() != 1 || db.Closed() {
		t.Fatal("tenant closed at exactly its idle timeout after release")
	}
	clk.Advance(SweepPeriod(cfg.IdleTimeout))
	s.Settle()
	if m.OpenCount() != 0 || !db.Closed() {
		t.Fatal("released tenant idle past its timeout still open")
	}
}

// TestConcurrentOpenEvictReopen hammers one tenant from many goroutines while
// a tight MaxOpen bound and a second tenant force constant evict/reopen of
// the same directory. Run under -race; correctness here is "exactly one live
// DB instance per tenant at any moment" (enforced by the pending-marker
// serialization) and no lost writes.
func TestConcurrentOpenEvictReopen(t *testing.T) {
	root := t.TempDir()
	ctx := context.Background()
	cfg := testConfig(t, root)
	cfg.MaxOpen = 1
	m, _, _ := newManager(t, cfg)
	defer m.Close()

	// Seed both tenants with a table.
	for _, name := range []string{"a", "b"} {
		h, err := m.Get(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, h.DB(), "CREATE TABLE n (v BIGINT)")
		h.Release()
	}

	const workers = 8
	const perWorker = 20
	var inserted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := "a"
			if w%2 == 1 {
				name = "b"
			}
			for i := 0; i < perWorker; i++ {
				h, err := m.Get(ctx, name)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if _, err := h.DB().Exec("INSERT INTO n VALUES (1)"); err != nil {
					t.Errorf("worker %d insert: %v", w, err)
					h.Release()
					return
				}
				inserted.Add(1)
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every write survived the evict/reopen churn: the two tenants' counts
	// sum to the number of acknowledged inserts.
	var total int64
	for _, name := range []string{"a", "b"} {
		h, err := m.Get(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		res := mustExec(t, h.DB(), "SELECT COUNT(*) FROM n")
		total += res.Rows[0][0].I
		h.Release()
	}
	if total != inserted.Load() {
		t.Fatalf("recovered %d rows, acknowledged %d", total, inserted.Load())
	}
}

// TestGetAfterClose verifies the typed error and that Close wakes waiters.
func TestGetAfterClose(t *testing.T) {
	m, _, _ := newManager(t, testConfig(t, t.TempDir()))
	m.Close()
	if _, err := m.Get(context.Background(), "acme"); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("err = %v, want ErrManagerClosed", err)
	}
	m.Close() // idempotent
}

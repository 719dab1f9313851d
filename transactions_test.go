package apollo_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apollo"
)

func txnConfig() apollo.Config {
	cfg := apollo.DefaultConfig()
	cfg.RowGroupSize = 32
	cfg.BulkLoadThreshold = 1 << 20 // keep DML on the trickle path
	cfg.TupleMoverInterval = 2 * time.Millisecond
	return cfg
}

func mustRows(t *testing.T, db *apollo.DB, q string) []apollo.Row {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res.Rows
}

func TestTxnCommitAtomicVisibility(t *testing.T) {
	db := apollo.Open(txnConfig())
	defer db.Close()
	db.MustExec("CREATE TABLE a (id BIGINT, v VARCHAR)")
	db.MustExec("CREATE TABLE b (id BIGINT)")
	db.MustExec("INSERT INTO a VALUES (1, 'base')")

	ctx := context.Background()
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO a VALUES (2, 'txn')"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO b VALUES (10)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("DELETE FROM a WHERE id = 1"); err != nil {
		t.Fatal(err)
	}

	// Own writes visible inside the transaction...
	rows, err := tx.Query("SELECT id FROM a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 1 || rows.Rows[0][0].I != 2 {
		t.Fatalf("inside txn: got %v, want only id=2", rows.Rows)
	}
	// ...and invisible outside until commit.
	if got := mustRows(t, db, "SELECT id FROM a"); len(got) != 1 || got[0][0].I != 1 {
		t.Fatalf("outside txn before commit: got %v, want only id=1", got)
	}
	if got := mustRows(t, db, "SELECT id FROM b"); len(got) != 0 {
		t.Fatalf("outside txn before commit: b has %v, want empty", got)
	}

	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := mustRows(t, db, "SELECT id FROM a"); len(got) != 1 || got[0][0].I != 2 {
		t.Fatalf("after commit: got %v, want only id=2", got)
	}
	if got := mustRows(t, db, "SELECT id FROM b"); len(got) != 1 || got[0][0].I != 10 {
		t.Fatalf("after commit: b = %v, want [10]", got)
	}

	// Finished transaction rejects further use.
	if _, err := tx.Exec("INSERT INTO b VALUES (11)"); !errors.Is(err, apollo.ErrTxnDone) {
		t.Fatalf("exec after commit: %v, want ErrTxnDone", err)
	}
	if err := tx.Rollback(ctx); !errors.Is(err, apollo.ErrTxnDone) {
		t.Fatalf("rollback after commit: %v, want ErrTxnDone", err)
	}
}

func TestTxnRollbackDiscards(t *testing.T) {
	db := apollo.Open(txnConfig())
	defer db.Close()
	db.MustExec("CREATE TABLE r (id BIGINT, v BIGINT)")
	db.MustExec("INSERT INTO r VALUES (1, 100)")

	ctx := context.Background()
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("UPDATE r SET v = 200 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO r VALUES (2, 2)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	got := mustRows(t, db, "SELECT id, v FROM r")
	if len(got) != 1 || got[0][0].I != 1 || got[0][1].I != 100 {
		t.Fatalf("after rollback: %v, want [[1 100]]", got)
	}
}

func TestTxnSnapshotReadersAreStable(t *testing.T) {
	db := apollo.Open(txnConfig())
	defer db.Close()
	db.MustExec("CREATE TABLE s (id BIGINT)")
	db.MustExec("INSERT INTO s VALUES (1), (2), (3)")

	ctx := context.Background()
	reader, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent committed writes: a delete and inserts.
	db.MustExec("DELETE FROM s WHERE id = 2")
	db.MustExec("INSERT INTO s VALUES (4)")

	rows, err := reader.Query("SELECT id FROM s")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 3 {
		t.Fatalf("snapshot reader sees %d rows, want the 3 from its snapshot (got %v)", len(rows.Rows), rows.Rows)
	}
	if err := reader.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	// A fresh snapshot sees the new state.
	if got := mustRows(t, db, "SELECT id FROM s"); len(got) != 3 {
		t.Fatalf("current state has %d rows, want 3 (1,3,4)", len(got))
	}
}

func TestTxnWriteConflictFirstWriterWins(t *testing.T) {
	db := apollo.Open(txnConfig())
	defer db.Close()
	db.MustExec("CREATE TABLE c (id BIGINT, v BIGINT)")
	db.MustExec("INSERT INTO c VALUES (1, 0), (2, 0)")

	ctx := context.Background()
	tx1, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Exec("UPDATE c SET v = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	// tx2 writes the same row while tx1's provisional write is pending.
	_, err = tx2.Exec("UPDATE c SET v = 2 WHERE id = 1")
	if !errors.Is(err, apollo.ErrWriteConflict) {
		t.Fatalf("second writer got %v, want ErrWriteConflict", err)
	}
	// The conflict rolled tx2 back; it is unusable now.
	if _, err := tx2.Exec("SELECT id FROM c"); !errors.Is(err, apollo.ErrTxnDone) {
		t.Fatalf("conflicted txn still usable: %v", err)
	}
	if err := tx1.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// A transaction whose snapshot predates a commit conflicts too.
	tx3, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("UPDATE c SET v = 9 WHERE id = 2") // autocommit, after tx3's snapshot
	if _, err := tx3.Exec("UPDATE c SET v = 3 WHERE id = 2"); !errors.Is(err, apollo.ErrWriteConflict) {
		t.Fatalf("stale-snapshot writer got %v, want ErrWriteConflict", err)
	}

	// Retry from Begin succeeds: the winner is settled now.
	tx4, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx4.Exec("UPDATE c SET v = 3 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if err := tx4.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	got := mustRows(t, db, "SELECT v FROM c WHERE id = 2")
	if len(got) != 1 || got[0][0].I != 3 {
		t.Fatalf("retried update lost: %v", got)
	}
}

func TestTxnSQLSessionFlow(t *testing.T) {
	db := apollo.Open(txnConfig())
	defer db.Close()
	db.MustExec("CREATE TABLE q (id BIGINT)")

	s1 := db.Session()
	defer s1.Close()
	s2 := db.Session()
	defer s2.Close()

	if _, err := s1.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if !s1.InTxn() {
		t.Fatal("session not in txn after BEGIN")
	}
	if _, err := s1.Exec("INSERT INTO q VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	// The other session (autocommit) does not see it.
	res, err := s2.Exec("SELECT id FROM q")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("uncommitted write visible to other session: %v", res.Rows)
	}
	if _, err := s1.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if s1.InTxn() {
		t.Fatal("session still in txn after COMMIT")
	}
	res, err = s2.Exec("SELECT id FROM q")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("committed write invisible: %v", res.Rows)
	}

	// Transaction-control statements need transaction state to make sense.
	if _, err := s1.Exec("COMMIT"); err == nil {
		t.Fatal("COMMIT with no open transaction succeeded")
	}
	if _, err := s1.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Exec("BEGIN"); err == nil {
		t.Fatal("nested BEGIN succeeded")
	}
	if _, err := s1.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}

	// DDL inside a transaction is rejected; the engine-level (sessionless)
	// path rejects transaction control outright.
	if _, err := s1.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Exec("CREATE TABLE nope (x BIGINT)"); err == nil {
		t.Fatal("DDL inside transaction succeeded")
	}
	if _, err := s1.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("BEGIN"); err == nil {
		t.Fatal("BEGIN outside a session succeeded")
	}
}

// TestTxnCloseUnderLoad drives concurrent transactional writers while the
// database shuts down. Every in-flight transaction must resolve to ErrClosed
// (or finish cleanly just before the close); nothing may hang or panic, and
// the manager must reject new transactions afterwards.
func TestTxnCloseUnderLoad(t *testing.T) {
	db := apollo.Open(txnConfig())
	db.MustExec("CREATE TABLE load (sess BIGINT, n BIGINT)")

	ctx := context.Background()
	const writers = 8
	var wg sync.WaitGroup
	var unexpected atomic.Value
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for n := 0; ; n++ {
				tx, err := db.Begin(ctx)
				if err != nil {
					if !errors.Is(err, apollo.ErrClosed) {
						unexpected.Store(fmt.Errorf("begin: %w", err))
					}
					return
				}
				_, err = tx.Exec(fmt.Sprintf("INSERT INTO load VALUES (%d, %d)", w, n))
				if err == nil {
					err = tx.Commit(ctx)
				} else {
					tx.Rollback(ctx)
				}
				if err != nil && !errors.Is(err, apollo.ErrClosed) && !errors.Is(err, apollo.ErrTxnDone) {
					unexpected.Store(fmt.Errorf("writer %d txn %d: %w", w, n, err))
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(20 * time.Millisecond) // let the writers get going
	done := make(chan struct{})
	go func() { db.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung with transactions in flight")
	}
	wg.Wait()
	if err, ok := unexpected.Load().(error); ok && err != nil {
		t.Fatalf("writer saw unexpected error during shutdown: %v", err)
	}
	if _, err := db.Begin(ctx); !errors.Is(err, apollo.ErrClosed) {
		t.Fatalf("Begin after Close: %v, want ErrClosed", err)
	}
}

// TestTxnDurability commits transactions in a durable database and verifies
// they survive reopen — and that a transaction left open at Close (its
// TBegin and DML are in the log, its TCommit is not) is rolled back by
// recovery.
func TestTxnDurability(t *testing.T) {
	dir := t.TempDir()
	cfg := txnConfig()
	cfg.FsyncPolicy = "always"

	db, err := apollo.OpenDir(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE d (id BIGINT, v VARCHAR)")
	ctx := context.Background()

	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO d VALUES (1, 'committed'), (2, 'committed')"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Leave a second transaction in flight across the close.
	open, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := open.Exec("INSERT INTO d VALUES (3, 'uncommitted')"); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := apollo.OpenDir(dir, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	got := mustRows(t, db2, "SELECT id FROM d")
	if len(got) != 2 {
		t.Fatalf("recovered %d rows, want exactly the 2 committed (got %v)", len(got), got)
	}
	for _, r := range got {
		if r[0].I == 3 {
			t.Fatal("uncommitted transaction resurrected by recovery")
		}
	}
}

// TestTxnGroupCommit commits from many sessions concurrently under
// fsync=always and checks the fsync counter grew by far less than one fsync
// per commit — the cross-session group commit.
func TestTxnGroupCommit(t *testing.T) {
	dir := t.TempDir()
	cfg := txnConfig()
	cfg.FsyncPolicy = "always"
	db, err := apollo.OpenDir(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec("CREATE TABLE g (sess BIGINT, n BIGINT)")

	const sessions = 8
	const commitsPer = 25
	before := db.MetricsSnapshot()["apollo_wal_fsyncs_total"]
	ctx := context.Background()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for n := 0; n < commitsPer; n++ {
				tx, err := db.Begin(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := tx.Exec(fmt.Sprintf("INSERT INTO g VALUES (%d, %d)", s, n)); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	fsyncs := db.MetricsSnapshot()["apollo_wal_fsyncs_total"] - before
	commits := float64(sessions * commitsPer)
	if got := mustRows(t, db, "SELECT sess FROM g"); len(got) != int(commits) {
		t.Fatalf("lost commits: %d rows, want %d", len(got), int(commits))
	}
	// Each transaction appends several records (TBegin, DML, TCommit) but
	// only its commit waits for durability, so even with zero cross-session
	// overlap the ceiling is ~one fsync per commit (plus rotations). Actual
	// cross-session sharing depends on scheduler overlap — on a single-CPU
	// host commits may serialize perfectly; the deterministic sharing test is
	// wal.TestWaitDurableSharesFsync.
	if fsyncs > commits*1.2+20 {
		t.Errorf("fsync per record, not per commit: %.0f fsyncs for %.0f commits", fsyncs, commits)
	}
	t.Logf("group commit: %.0f commits, %.0f fsyncs (%.2f fsyncs/commit)", commits, fsyncs, fsyncs/commits)
}

// TestTxnSnapshotPropertyUnderChurn is the snapshot-consistency property
// test: writer transactions keep a per-group invariant (the values of each
// group sum to zero) by always writing balanced pairs — insert +x and -x
// together, delete both together — while concurrent readers under snapshot
// isolation and the background tuple mover churn delta stores into
// compressed row groups. No reader may ever observe a half-applied
// transaction (nonzero group sum, odd row count) at any point, including
// rows in mid-move stores; after reopening the durable variant the invariant
// must also hold post-replay.
func TestTxnSnapshotPropertyUnderChurn(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "inmemory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			cfg := txnConfig()
			cfg.RowGroupSize = 16 // aggressive moves
			var db *apollo.DB
			var dir string
			if durable {
				dir = t.TempDir()
				cfg.FsyncPolicy = "off" // throughput; atomicity must hold regardless
				var err error
				db, err = apollo.OpenDir(dir, cfg)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				db = apollo.Open(cfg)
			}
			db.MustExec("CREATE TABLE p (grp BIGINT, tag BIGINT, val BIGINT)")

			ctx := context.Background()
			const writers = 4
			const readers = 3
			const groups = 4
			duration := 400 * time.Millisecond
			stop := make(chan struct{})
			var wg sync.WaitGroup

			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) + 7))
					tag := w * 1_000_000
					var live []int // committed tags this writer may delete
					for {
						select {
						case <-stop:
							return
						default:
						}
						tx, err := db.Begin(ctx)
						if err != nil {
							t.Error(err)
							return
						}
						g := rng.Intn(groups)
						var stmtErr error
						del := len(live) > 0 && rng.Intn(3) == 0
						if del {
							victim := live[rng.Intn(len(live))]
							// Deletes both the +x and -x row of the pair.
							_, stmtErr = tx.Exec(fmt.Sprintf("DELETE FROM p WHERE tag = %d", victim))
						} else {
							tag++
							x := rng.Intn(50) + 1
							_, stmtErr = tx.Exec(fmt.Sprintf("INSERT INTO p VALUES (%d, %d, %d)", g, tag, x))
							if stmtErr == nil {
								_, stmtErr = tx.Exec(fmt.Sprintf("INSERT INTO p VALUES (%d, %d, %d)", g, tag, -x))
							}
						}
						if stmtErr != nil {
							if errors.Is(stmtErr, apollo.ErrWriteConflict) {
								continue // conflict already rolled the txn back
							}
							t.Errorf("writer %d: %v", w, stmtErr)
							tx.Rollback(ctx)
							return
						}
						if rng.Intn(8) == 0 {
							tx.Rollback(ctx)
							continue
						}
						if err := tx.Commit(ctx); err != nil {
							t.Errorf("writer %d commit: %v", w, err)
							return
						}
						if del {
							// Deleted tag is gone; forget it (duplicates are
							// impossible since tags are writer-unique).
						} else {
							live = append(live, tag)
						}
					}
				}(w)
			}

			check := func(rows []apollo.Row, when string) {
				sums := map[int64]int64{}
				counts := map[int64]int64{}
				for _, r := range rows {
					sums[r[0].I] += r[1].I
					counts[r[0].I]++
				}
				for g, s := range sums {
					if s != 0 {
						t.Errorf("%s: group %d sums to %d — torn transaction visible", when, g, s)
					}
				}
				for g, c := range counts {
					if c%2 != 0 {
						t.Errorf("%s: group %d has odd row count %d — half a pair visible", when, g, c)
					}
				}
			}

			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						res, err := db.Query("SELECT grp, val FROM p")
						if err != nil {
							t.Errorf("reader %d: %v", r, err)
							return
						}
						check(res.Rows, fmt.Sprintf("reader %d", r))
					}
				}(r)
			}

			time.Sleep(duration)
			close(stop)
			wg.Wait()
			check(mustRows(t, db, "SELECT grp, val FROM p"), "final")
			db.Close()

			if durable {
				// Post-replay: reopen and re-verify the invariant. The log may
				// end mid-transaction (writers killed by stop between DML and
				// COMMIT never logged a TCommit) — recovery must discard those.
				cfg2 := txnConfig()
				cfg2.FsyncPolicy = "off"
				db2, err := apollo.OpenDir(dir, cfg2)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer db2.Close()
				check(mustRows(t, db2, "SELECT grp, val FROM p"), "post-replay")
			}
		})
	}
}

// A failing UPDATE changes no row: every new row is computed and checked
// before the first write, whether the matching rows sit in a compressed
// group or in the delta store, in autocommit and inside a transaction whose
// COMMIT then persists nothing of it. The same holds for a multi-row INSERT
// whose second row is NULL in the NOT NULL column.
func TestUpdateFailureWritesNothing(t *testing.T) {
	open := map[string]func(t *testing.T) (*apollo.DB, func() *apollo.DB){
		"Open": func(t *testing.T) (*apollo.DB, func() *apollo.DB) {
			db := apollo.Open(updateFailureConfig())
			return db, func() *apollo.DB { return db }
		},
		"OpenDir": func(t *testing.T) (*apollo.DB, func() *apollo.DB) {
			dir := t.TempDir()
			db, err := apollo.OpenDir(dir, updateFailureConfig())
			if err != nil {
				t.Fatal(err)
			}
			return db, func() *apollo.DB {
				db.Close()
				if db, err = apollo.OpenDir(dir, updateFailureConfig()); err != nil {
					t.Fatal(err)
				}
				return db
			}
		},
	}
	const want = "1:1 2:2 3:3 4:4 5:5 6:6 7:7 8:8"
	for name, mk := range open {
		// The division by zero makes v NULL at id 2 (compressed) or 7
		// (delta), after the rows before it already have their new value.
		for _, zero := range []int{2, 7} {
			for _, inTxn := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/zero_at_%d/txn=%v", name, zero, inTxn), func(t *testing.T) {
					db, reopen := mk(t)
					db.MustExec("CREATE TABLE t (id BIGINT, v BIGINT NOT NULL)")
					db.MustExec("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4)") // one compressed group
					for id := 5; id <= 8; id++ {
						db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", id, id)) // delta store
					}
					res, err := db.Query("SELECT SUM(v) FROM t WHERE v > 0")
					if err != nil {
						t.Fatal(err)
					}
					if res.Stats.RowGroups != 1 || res.Stats.DeltaRowsScanned != 4 {
						t.Fatalf("fixture: %d row groups, %d delta rows; want 1 and 4", res.Stats.RowGroups, res.Stats.DeltaRowsScanned)
					}
					failing := []string{
						fmt.Sprintf("UPDATE t SET v = 10 / (id - %d)", zero),
						"INSERT INTO t VALUES (9, 9), (10, NULL), (11, 11)",
					}
					if inTxn {
						tx, err := db.Begin(context.Background())
						if err != nil {
							t.Fatal(err)
						}
						for _, stmt := range failing {
							if _, err := tx.Exec(stmt); err == nil {
								t.Fatalf("%s: writing NULL into a NOT NULL column succeeded", stmt)
							}
						}
						if err := tx.Commit(context.Background()); err != nil {
							t.Fatal(err)
						}
					} else {
						for _, stmt := range failing {
							if _, err := db.Exec(stmt); err == nil {
								t.Fatalf("%s: writing NULL into a NOT NULL column succeeded", stmt)
							}
						}
					}
					db = reopen()
					defer db.Close()
					got := ""
					for _, r := range mustRows(t, db, "SELECT id, v FROM t ORDER BY id") {
						got += fmt.Sprintf(" %d:%d", r[0].I, r[1].I)
					}
					if got[1:] != want {
						t.Fatalf("after the failed UPDATE and INSERT: %s, want %s", got[1:], want)
					}
				})
			}
		}
	}
}

func updateFailureConfig() apollo.Config {
	cfg := apollo.DefaultConfig()
	cfg.RowGroupSize = 4
	cfg.BulkLoadThreshold = 4
	cfg.TupleMoverInterval = 0 // the four trickled rows stay in the delta store
	return cfg
}

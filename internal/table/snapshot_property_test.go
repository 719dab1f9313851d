package table

import (
	"sync"
	"testing"
	"time"

	"apollo/internal/sched"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/wal"
)

// Snapshot consistency properties, checked under concurrent DML with the
// tuple mover racing, and at every step of a WAL replay:
//
//  1. No duplicate: an id never appears both delta-resident and live in a
//     compressed group (or twice anywhere).
//  2. No resurrection: an id whose delete completed before the snapshot was
//     cut is not visible — in particular never "deleted in the bitmap but
//     still delta-resident" via a stale store.
//
// These are the invariants the mover's publish-under-lock and the recovery
// path's replay ordering exist to protect.

// snapshotOccurrences counts every visible occurrence of each id.
func snapshotOccurrences(t *testing.T, snap *Snapshot) map[int64]int {
	t.Helper()
	out := map[int64]int{}
	for _, g := range snap.Groups {
		del := snap.Deletes[g.ID]
		r, err := snap.OpenColumn(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.Rows; i++ {
			if del != nil && del.Get(i) {
				continue
			}
			out[r.Value(i).I]++
		}
	}
	for _, row := range snap.Delta {
		out[row[0].I]++
	}
	return out
}

// checkSnapshotInvariants cuts a snapshot and verifies both properties.
// confirmedDeleted must be ids whose delete completed before this call.
func checkSnapshotInvariants(t *testing.T, tb *Table, confirmedDeleted map[int64]bool, ctx string) {
	t.Helper()
	occ := snapshotOccurrences(t, tb.Snapshot())
	for id, n := range occ {
		if n > 1 {
			t.Fatalf("%s: id %d visible %d times (delta-resident and compressed at once)", ctx, id, n)
		}
		if confirmedDeleted[id] {
			t.Fatalf("%s: id %d resurrected after a completed delete", ctx, id)
		}
	}
}

// TestSnapshotInvariantsUnderConcurrentDML races one writer, one deleter,
// the background tuple mover, and a snapshot checker.
func TestSnapshotInvariantsUnderConcurrentDML(t *testing.T) {
	tb := New(storage.NewStore(storage.DefaultBufferPoolBytes), "p", testSchema(), Options{
		RowGroupSize:      32,
		BulkLoadThreshold: 1 << 20,
		Columnstore:       DefaultOptions().Columnstore,
	})
	sc := sched.New(time.Now)
	defer sc.Stop()
	sc.Add(tb.MoverJob(100 * time.Microsecond))

	const total = 2000
	var mu sync.Mutex
	deleted := map[int64]bool{} // ids whose DeleteWhere has returned
	var inserted int64          // ids 1..inserted have been acknowledged

	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for i := int64(1); i <= total; i++ {
			if _, err := tb.Insert(mkRow(i)); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			inserted = i
			mu.Unlock()
		}
	}()

	wg.Add(1)
	go func() { // deleter: every third id, only once its insert is acknowledged
		defer wg.Done()
		next := int64(3)
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			hi := inserted
			mu.Unlock()
			if next > total {
				return
			}
			if next > hi {
				time.Sleep(50 * time.Microsecond)
				continue
			}
			id := next
			if _, err := tb.DeleteWhere(func(row sqltypes.Row) bool { return row[0].I == id }); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			deleted[id] = true
			mu.Unlock()
			next += 3
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		// Freeze the confirmed-delete set BEFORE cutting the snapshot: every
		// id in it completed strictly earlier, so the snapshot must not show it.
		mu.Lock()
		confirmed := make(map[int64]bool, len(deleted))
		for id := range deleted {
			confirmed[id] = true
		}
		mu.Unlock()
		checkSnapshotInvariants(t, tb, confirmed, "concurrent DML")
		select {
		case <-done:
			close(stop)
			// Final state: everything inserted, every third id gone.
			occ := snapshotOccurrences(t, tb.Snapshot())
			for i := int64(1); i <= total; i++ {
				want := 1
				if i%3 == 0 {
					want = 0
				}
				if occ[i] != want {
					t.Fatalf("final state: id %d visible %d times, want %d", i, occ[i], want)
				}
			}
			return
		default:
		}
	}
}

// TestSnapshotInvariantsMidReplay replays a real workload's WAL one record
// at a time into a fresh table and checks the invariants between every
// record — the states a query would see if the engine served reads during
// recovery. Deletes confirmed by the log (TDeltaDelete/TDeleteSet already
// replayed) must stay invisible from that record on.
func TestSnapshotInvariantsMidReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Create(dir, 1, wal.Options{Policy: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{RowGroupSize: 16, BulkLoadThreshold: 1 << 20, Columnstore: DefaultOptions().Columnstore}
	// One store for both tables: segment blobs reach disk via write-through
	// backing before their publish record is logged, so at replay time the
	// blobs are already loadable — sharing the store models exactly that.
	store := storage.NewStore(storage.DefaultBufferPoolBytes)
	src := New(store, "p", testSchema(), opts)
	src.SetWAL(w)
	for i := int64(1); i <= 100; i++ {
		if _, err := src.Insert(mkRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.FlushOpen(); err != nil {
		t.Fatal(err)
	}
	for i := int64(5); i <= 50; i += 5 {
		id := i
		if _, err := src.DeleteWhere(func(row sqltypes.Row) bool { return row[0].I == id }); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(101); i <= 130; i++ {
		if _, err := src.Insert(mkRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.FlushOpen(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay into a fresh table sharing no state with src, pausing after
	// every record to cut and check a snapshot.
	dst := New(store, "p", testSchema(), opts)
	confirmed := map[int64]bool{}
	wasVisible := map[int64]bool{}
	step := 0
	_, err = wal.Scan(dir, 1, false, func(_ uint64, rec *wal.Record) error {
		if err := dst.ReplayRecord(rec); err != nil {
			return err
		}
		// A replayed delete is durable from this record on. (Delete records
		// carry the tuple key / position, not the id, so re-read the source
		// of truth: what ids does dst consider deleted now? Any id that
		// disappears from the snapshot after a delete record must never
		// come back — track the visible set and require monotonicity.)
		step++
		occ := snapshotOccurrences(t, dst.Snapshot())
		for id, n := range occ {
			if n > 1 {
				t.Fatalf("replay step %d (%v): id %d visible %d times", step, rec.Type, id, n)
			}
			if confirmed[id] {
				t.Fatalf("replay step %d (%v): id %d resurrected after its delete replayed", step, rec.Type, id)
			}
		}
		if rec.Type == wal.TDeltaDelete || rec.Type == wal.TDeleteSet {
			// Whatever vanished by now stays vanished: record ids currently
			// invisible that once were visible.
			for id := int64(1); id <= 130; id++ {
				if occ[id] == 0 && wasVisible[id] {
					confirmed[id] = true
				}
			}
		}
		for id, n := range occ {
			if n > 0 {
				wasVisible[id] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dst.FinishRecovery()

	// End state equals the source table's live rows.
	srcOcc := snapshotOccurrences(t, src.Snapshot())
	dstOcc := snapshotOccurrences(t, dst.Snapshot())
	for id := int64(1); id <= 130; id++ {
		if srcOcc[id] != dstOcc[id] {
			t.Fatalf("replayed table diverges at id %d: src %d, dst %d", id, srcOcc[id], dstOcc[id])
		}
	}
}

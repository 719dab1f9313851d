package persist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"apollo/internal/catalog"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/table"
	"apollo/internal/wal"
)

func testSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "v", Typ: sqltypes.String},
	)
}

func mkRow(i int64) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewString(fmt.Sprintf("v-%d", i%5))}
}

// openEnv builds a durable catalog on dir (recovering whatever is there).
func openEnv(t *testing.T, dir string) (*catalog.Catalog, *wal.Writer, *RecoverResult) {
	t.Helper()
	store := storage.NewStore(1 << 20)
	cat := catalog.New(store)
	res, err := Recover(dir, store, cat, wal.Options{Policy: wal.FsyncOff})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return cat, res.Writer, res
}

// liveIDs reads every live row via a never-matching DeleteWhere predicate
// (the table has no plain scan API at this layer).
func liveIDs(t *testing.T, tb *table.Table) []int64 {
	t.Helper()
	var ids []int64
	if _, err := tb.DeleteWhere(func(row sqltypes.Row) bool {
		ids = append(ids, row[0].I)
		return false
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// deleteIDs removes rows whose id satisfies pred, returning the count.
func deleteIDs(t *testing.T, tb *table.Table, pred func(int64) bool) int {
	t.Helper()
	n, err := tb.DeleteWhere(func(row sqltypes.Row) bool { return pred(row[0].I) })
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRebuildAndMergeDurable covers the maintenance paths the SQL layer does
// not reach: REBUILD (retire all groups, recompress) and small-group merge
// must survive a close/recover cycle, including the retired groups' blob
// files being gone.
func TestRebuildAndMergeDurable(t *testing.T) {
	dir := t.TempDir()
	cat, w, _ := openEnv(t, dir)
	opts := table.DefaultOptions()
	opts.RowGroupSize = 8
	tb, err := cat.Create("m", testSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 30; i++ {
		if _, err := tb.Insert(mkRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.FlushOpen(); err != nil {
		t.Fatal(err)
	}
	if deleteIDs(t, tb, func(id int64) bool { return id%7 == 0 }) == 0 {
		t.Fatal("DeleteWhere deleted nothing")
	}
	if err := tb.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if merged, err := tb.MergeSmallGroups(); err != nil {
		t.Fatalf("merge: %v (merged %d)", err, merged)
	}
	want := liveIDs(t, tb)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	cat2, w2, res := openEnv(t, dir)
	defer w2.Close()
	tb2, err := cat2.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	if got := liveIDs(t, tb2); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows changed across rebuild+recover:\n got %v\nwant %v", got, want)
	}
	if res.OrphanBlobs != 0 {
		// Retired groups' blobs are deleted at retire time; recovery should
		// find nothing to GC after a clean shutdown.
		t.Fatalf("clean shutdown left %d orphan blobs", res.OrphanBlobs)
	}
}

// TestBulkLoadDurable: the bulk path (direct compression, no delta store)
// logs publishes with no consumed store and replays cleanly.
func TestBulkLoadDurable(t *testing.T) {
	dir := t.TempDir()
	cat, w, _ := openEnv(t, dir)
	opts := table.DefaultOptions()
	opts.RowGroupSize = 64
	opts.BulkLoadThreshold = 16
	tb, err := cat.Create("b", testSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]sqltypes.Row, 200)
	for i := range rows {
		rows[i] = mkRow(int64(i))
	}
	if _, err := tb.BulkLoad(context.Background(), rows); err != nil {
		t.Fatal(err)
	}
	want := liveIDs(t, tb)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	cat2, w2, _ := openEnv(t, dir)
	defer w2.Close()
	tb2, err := cat2.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	if got := liveIDs(t, tb2); !reflect.DeepEqual(got, want) {
		t.Fatalf("bulk-loaded rows changed across recovery: %d vs %d rows", len(got), len(want))
	}
	if tb2.Stat().CompressedGroups == 0 {
		t.Fatal("bulk load produced no compressed groups after recovery")
	}
}

// TestCheckpointWhileDirty: a checkpoint taken with rows in every structure
// (open delta, closed delta, compressed, deletes) plus post-checkpoint DML
// recovers to the exact final state.
func TestCheckpointWhileDirty(t *testing.T) {
	dir := t.TempDir()
	cat, w, _ := openEnv(t, dir)
	opts := table.DefaultOptions()
	opts.RowGroupSize = 8
	tb, err := cat.Create("d", testSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		if _, err := tb.Insert(mkRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.FlushOpen(); err != nil {
		t.Fatal(err)
	}
	for i := int64(21); i <= 25; i++ { // left in the open delta store
		if _, err := tb.Insert(mkRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	deleteIDs(t, tb, func(id int64) bool { return id == 3 })

	seq, err := WriteCheckpoint(dir, w, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq == 0 {
		t.Fatal("checkpoint seq 0")
	}
	for i := int64(26); i <= 30; i++ {
		if _, err := tb.Insert(mkRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	deleteIDs(t, tb, func(id int64) bool { return id == 1 })
	want := liveIDs(t, tb)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	cat2, w2, res := openEnv(t, dir)
	defer w2.Close()
	if res.CheckpointSeq != seq {
		t.Fatalf("recovered from checkpoint %d, want %d", res.CheckpointSeq, seq)
	}
	tb2, err := cat2.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	if got := liveIDs(t, tb2); !reflect.DeepEqual(got, want) {
		t.Fatalf("state after checkpointed recovery:\n got %v\nwant %v", got, want)
	}
}

// TestOrphanBlobGC: blob files not reachable from any table directory after
// replay (e.g. written by a build whose publish never became durable) are
// deleted during recovery.
func TestOrphanBlobGC(t *testing.T) {
	dir := t.TempDir()
	cat, w, _ := openEnv(t, dir)
	tb, err := cat.Create("o", testSchema(), table.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(mkRow(1)); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash-abandoned build: a blob on disk that no publish
	// record references.
	if _, err := cat.Store().Put([]byte("abandoned build output"), storage.None); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, w2, res := openEnv(t, dir)
	defer w2.Close()
	if res.OrphanBlobs != 1 {
		t.Fatalf("orphan GC removed %d blobs, want 1", res.OrphanBlobs)
	}
}

// TestCheckpointImageCorruptFallsBack: a damaged newest image is never
// trusted. With no older valid image to fall back to — and the WAL's
// pre-checkpoint prefix already truncated — recovery must refuse with
// ErrCorrupt rather than silently open a partial (here: empty) state.
func TestCheckpointImageCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	cat, w, _ := openEnv(t, dir)
	tb, err := cat.Create("f", testSchema(), table.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if _, err := tb.Insert(mkRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := WriteCheckpoint(dir, w, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the image; its CRC check must reject it. The WAL was
	// truncated at the checkpoint, so replay alone cannot rebuild the rows —
	// the point is that recovery REFUSES garbage rather than loading it.
	img := ckptPath(dir, seq)
	buf, err := os.ReadFile(img)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x10
	if err := os.WriteFile(img, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	store := storage.NewStore(1 << 20)
	_, err = Recover(dir, store, catalog.New(store), wal.Options{Policy: wal.FsyncOff})
	if err == nil {
		t.Fatal("recovery accepted a directory whose only checkpoint image is corrupt")
	}
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("recover: got %v, want ErrCorrupt", err)
	}
}

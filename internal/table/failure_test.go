package table

import (
	"context"
	"strings"
	"testing"

	"apollo/internal/sqltypes"
	"apollo/internal/storage"
)

// Corrupting a segment blob must surface as a checksum error through every
// read path — scans, bookmark fetches, rebuilds — not as silent bad data.
func TestSegmentCorruptionDetected(t *testing.T) {
	store := storage.NewStore(storage.DefaultBufferPoolBytes)
	tb := New(store, "t", testSchema(), smallOpts())
	if _, err := tb.BulkLoad(context.Background(), mkRows(100)); err != nil {
		t.Fatal(err)
	}
	g := tb.Index().Groups()[0]
	if err := store.Corrupt(g.Segs[0].Blob); err != nil {
		t.Fatal(err)
	}

	snap := tb.Snapshot()
	if _, err := snap.OpenColumn(g, 0); err == nil {
		t.Fatal("corrupted segment opened without error")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Bookmark fetch reports the row as unavailable rather than wrong.
	if _, ok := tb.FetchRow(Locator{Group: g.ID, Tuple: 1}); ok {
		t.Fatal("fetch through corrupted segment succeeded")
	}
	// DML scans propagate the error.
	if _, err := tb.DeleteWhere(func(sqltypes.Row) bool { return true }); err == nil {
		t.Fatal("DeleteWhere over corrupted segment succeeded")
	}
	// Rebuild propagates too (no partial swap).
	groupsBefore := len(tb.Index().Groups())
	if err := tb.Rebuild(); err == nil {
		t.Fatal("Rebuild over corrupted segment succeeded")
	}
	if len(tb.Index().Groups()) != groupsBefore {
		t.Fatal("failed rebuild mutated the directory")
	}
	// The uncorrupted column is still readable.
	if _, err := snap.OpenColumn(g, 1); err != nil {
		t.Fatalf("clean column unreadable: %v", err)
	}
}

// Row-group boundaries: loads landing exactly on RowGroupSize multiples.
func TestExactRowGroupBoundaries(t *testing.T) {
	tb := newTable(t) // RowGroupSize 100, threshold 20
	if _, err := tb.BulkLoad(context.Background(), mkRows(300)); err != nil {
		t.Fatal(err)
	}
	st := tb.Stat()
	if st.CompressedGroups != 3 || st.DeltaRows != 0 {
		t.Fatalf("300 rows: %+v", st)
	}
	for _, g := range tb.Index().Groups() {
		if g.Rows != 100 {
			t.Fatalf("group rows = %d", g.Rows)
		}
	}
	// Trickle exactly to the boundary closes the store but the open store
	// stays empty until the next insert.
	tb2 := newTable(t)
	for i := 0; i < 100; i++ {
		if _, err := tb2.Insert(mkRow(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	tb2.mu.RLock()
	closed, openRows := len(tb2.closed), tb2.open.Rows()
	tb2.mu.RUnlock()
	if closed != 1 || openRows != 0 {
		t.Fatalf("boundary trickle: closed=%d open=%d", closed, openRows)
	}
	if err := tb2.MoveAll(); err != nil {
		t.Fatal(err)
	}
	if tb2.Rows() != 100 {
		t.Fatalf("Rows = %d", tb2.Rows())
	}
}

// A table whose every row is deleted still behaves: scans yield nothing,
// rebuild empties the directory, inserts work afterwards.
func TestFullyDeletedTable(t *testing.T) {
	tb := newTable(t)
	tb.BulkLoad(context.Background(), mkRows(150))
	n, err := tb.DeleteWhere(func(sqltypes.Row) bool { return true })
	if err != nil || n != 150 {
		t.Fatalf("deleted %d, %v", n, err)
	}
	if tb.Rows() != 0 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	if got := collect(t, tb); len(got) != 0 {
		t.Fatalf("ghost rows: %v", got)
	}
	if err := tb.Rebuild(); err != nil {
		t.Fatal(err)
	}
	st := tb.Stat()
	if st.CompressedGroups != 0 || st.DeletedRows != 0 {
		t.Fatalf("after rebuild: %+v", st)
	}
	if _, err := tb.Insert(mkRow(1)); err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 1 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
}

package table

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"apollo/internal/sqltypes"
	"apollo/internal/storage"
)

func testSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "val", Typ: sqltypes.String},
	)
}

func smallOpts() Options {
	return Options{
		RowGroupSize:      100,
		BulkLoadThreshold: 20,
		Columnstore:       DefaultOptions().Columnstore,
	}
}

func newTable(t *testing.T) *Table {
	t.Helper()
	return New(storage.NewStore(storage.DefaultBufferPoolBytes), "t", testSchema(), smallOpts())
}

func mkRow(i int64) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewString(fmt.Sprintf("v%d", i%7))}
}

func mkRows(n int) []sqltypes.Row {
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = mkRow(int64(i))
	}
	return rows
}

// collect reads all live rows via a snapshot.
func collect(t *testing.T, tb *Table) map[int64]int {
	t.Helper()
	snap := tb.Snapshot()
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

func TestTrickleInsertAndRowCount(t *testing.T) {
	tb := newTable(t)
	for i := 0; i < 50; i++ {
		if _, err := tb.Insert(mkRow(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Rows() != 50 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	st := tb.Stat()
	if st.CompressedRows != 0 || st.DeltaRows != 50 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDeltaStoreClosesAtRowGroupSize(t *testing.T) {
	tb := newTable(t)
	for i := 0; i < 250; i++ {
		tb.Insert(mkRow(int64(i)))
	}
	tb.mu.RLock()
	closed := len(tb.closed)
	tb.mu.RUnlock()
	if closed != 2 {
		t.Fatalf("closed stores = %d, want 2", closed)
	}
}

func TestTupleMoverCompressesClosedStores(t *testing.T) {
	tb := newTable(t)
	for i := 0; i < 250; i++ {
		tb.Insert(mkRow(int64(i)))
	}
	if err := tb.MoveAll(); err != nil {
		t.Fatal(err)
	}
	st := tb.Stat()
	if st.CompressedGroups != 2 || st.CompressedRows != 200 || st.DeltaRows != 50 {
		t.Fatalf("stats after move: %+v", st)
	}
	got := collect(t, tb)
	for i := int64(0); i < 250; i++ {
		if got[i] != 1 {
			t.Fatalf("row %d count = %d", i, got[i])
		}
	}
}

func TestBulkLoadPaths(t *testing.T) {
	tb := newTable(t)
	// 250 rows: two full groups of 100, remainder 50 >= threshold 20 -> third group.
	if err := tb.BulkLoad(mkRows(250)); err != nil {
		t.Fatal(err)
	}
	st := tb.Stat()
	if st.CompressedGroups != 3 || st.CompressedRows != 250 || st.DeltaRows != 0 {
		t.Fatalf("stats: %+v", st)
	}

	// 10 more rows: below threshold -> delta store.
	if err := tb.BulkLoad(mkRows(10)); err != nil {
		t.Fatal(err)
	}
	st = tb.Stat()
	if st.CompressedGroups != 3 || st.DeltaRows != 10 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDeleteWhereAcrossStores(t *testing.T) {
	tb := newTable(t)
	tb.BulkLoad(mkRows(100)) // compressed group
	for i := 100; i < 150; i++ {
		tb.Insert(mkRow(int64(i))) // delta rows
	}
	n, err := tb.DeleteWhere(func(r sqltypes.Row) bool { return r[0].I%2 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if n != 75 {
		t.Fatalf("deleted %d, want 75", n)
	}
	if tb.Rows() != 75 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	got := collect(t, tb)
	for i := int64(0); i < 150; i++ {
		want := 0
		if i%2 == 1 {
			want = 1
		}
		if got[i] != want {
			t.Fatalf("row %d count = %d, want %d", i, got[i], want)
		}
	}
}

func TestUpdateWhereIsDeletePlusInsert(t *testing.T) {
	tb := newTable(t)
	tb.BulkLoad(mkRows(100))
	n, err := tb.UpdateWhere(
		func(r sqltypes.Row) bool { return r[0].I < 10 },
		func(r sqltypes.Row) sqltypes.Row {
			r[1] = sqltypes.NewString("updated")
			return r
		},
	)
	if err != nil || n != 10 {
		t.Fatalf("updated %d, err %v", n, err)
	}
	if tb.Rows() != 100 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	st := tb.Stat()
	// Updated rows land in the delta store; originals are delete-bitmapped.
	if st.DeltaRows != 10 || st.DeletedRows != 10 {
		t.Fatalf("stats: %+v", st)
	}
	snap := tb.Snapshot()
	count := 0
	for _, row := range snap.Delta {
		if row[1].S == "updated" {
			count++
		}
	}
	if count != 10 {
		t.Fatalf("updated rows in delta = %d", count)
	}
}

func TestFetchRowBookmarks(t *testing.T) {
	tb := newTable(t)
	loc, err := tb.Insert(mkRow(42))
	if err != nil {
		t.Fatal(err)
	}
	row, ok := tb.FetchRow(loc)
	if !ok || row[0].I != 42 {
		t.Fatalf("FetchRow = %v, %v", row, ok)
	}
	// Compressed bookmark.
	tb.BulkLoad(mkRows(100))
	g := tb.Index().Groups()[0]
	cloc := Locator{Group: g.ID, Tuple: 5}
	if _, ok := tb.FetchRow(cloc); !ok {
		t.Fatal("compressed FetchRow failed")
	}
	// Delete then fetch.
	if !tb.DeleteAt(cloc) {
		t.Fatal("DeleteAt failed")
	}
	if _, ok := tb.FetchRow(cloc); ok {
		t.Fatal("deleted row fetched")
	}
	// Stale/invalid locators.
	if _, ok := tb.FetchRow(Locator{Group: 999, Tuple: 0}); ok {
		t.Fatal("phantom group fetched")
	}
	if _, ok := tb.FetchRow(Locator{Group: g.ID, Tuple: 1 << 20}); ok {
		t.Fatal("out-of-range tuple fetched")
	}
}

func TestMoveOnceReplaysDeleteBuffer(t *testing.T) {
	// Deletes that land while the mover compresses a store go to its delete
	// buffer; MoveOnce must replay them onto the published group.
	tb := newTable(t)
	var locs []Locator
	for i := 0; i < 100; i++ { // the 100th insert closes the store
		loc, _ := tb.Insert(mkRow(int64(i)))
		locs = append(locs, loc)
	}
	tb.moverTestHookAfterBuild = func() {
		if !tb.DeleteAt(locs[3]) || !tb.DeleteAt(locs[97]) {
			t.Error("delete during move failed")
		}
	}
	if moved, err := tb.MoveOnce(); !moved || err != nil {
		t.Fatalf("MoveOnce: moved=%v err=%v", moved, err)
	}
	if st := tb.Stat(); st.CompressedRows != 100 || st.DeletedRows != 2 || tb.Rows() != 98 {
		t.Fatalf("after move: %+v, Rows = %d", st, tb.Rows())
	}
	got := collect(t, tb)
	if got[3] != 0 || got[97] != 0 || got[4] != 1 {
		t.Fatalf("delete buffer replay wrong: %v %v %v", got[3], got[97], got[4])
	}
}

func TestBackgroundTupleMover(t *testing.T) {
	tb := newTable(t)
	tb.StartTupleMover(5 * time.Millisecond)
	defer tb.StopTupleMover()
	for i := 0; i < 500; i++ {
		tb.Insert(mkRow(int64(i)))
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := tb.Stat()
		if st.CompressedRows == 500 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := tb.Stat()
	if st.CompressedRows != 500 {
		t.Fatalf("mover did not drain: %+v", st)
	}
	if tb.Rows() != 500 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
}

func TestConcurrentInsertQueryMove(t *testing.T) {
	tb := newTable(t)
	tb.StartTupleMover(time.Millisecond)
	defer tb.StopTupleMover()

	const writers = 4
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := tb.Insert(mkRow(int64(w*perWriter + i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Concurrent readers: snapshots must never see a row twice or crash.
	stopRead := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			snap := tb.Snapshot()
			seen := map[int64]bool{}
			ok := true
			for _, g := range snap.Groups {
				r, err := snap.OpenColumn(g, 0)
				if err != nil {
					t.Error(err)
					return
				}
				del := snap.Deletes[g.ID]
				for i := 0; i < g.Rows; i++ {
					if del != nil && del.Get(i) {
						continue
					}
					v := r.Value(i).I
					if seen[v] {
						t.Errorf("duplicate row %d in snapshot", v)
						ok = false
					}
					seen[v] = true
				}
			}
			for _, row := range snap.Delta {
				v := row[0].I
				if seen[v] {
					t.Errorf("row %d in both compressed and delta", v)
					ok = false
				}
				seen[v] = true
			}
			if !ok {
				return
			}
		}
	}()
	wg.Wait()
	close(stopRead)
	rg.Wait()

	if err := tb.FlushOpen(); err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != writers*perWriter {
		t.Fatalf("Rows = %d, want %d", tb.Rows(), writers*perWriter)
	}
	got := collect(t, tb)
	if len(got) != writers*perWriter {
		t.Fatalf("distinct rows = %d", len(got))
	}
}

func TestSample(t *testing.T) {
	tb := newTable(t)
	tb.BulkLoad(mkRows(500))
	for i := 500; i < 600; i++ {
		tb.Insert(mkRow(int64(i)))
	}
	tb.DeleteWhere(func(r sqltypes.Row) bool { return r[0].I < 50 })

	rng := rand.New(rand.NewSource(7))
	sample := tb.Sample(200, rng)
	if len(sample) < 150 {
		t.Fatalf("sample too small: %d", len(sample))
	}
	sawDelta := false
	for _, r := range sample {
		if r[0].I < 50 {
			t.Fatalf("sampled deleted row %d", r[0].I)
		}
		if r[0].I >= 500 {
			sawDelta = true
		}
	}
	if !sawDelta {
		t.Fatal("sample never hit delta rows")
	}
	// Empty table.
	empty := newTable(t)
	if s := empty.Sample(10, rng); s != nil {
		t.Fatalf("sample of empty table = %v", s)
	}
}

func TestRejectsBadRows(t *testing.T) {
	tb := newTable(t)
	if _, err := tb.Insert(sqltypes.Row{sqltypes.NewInt(1)}); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := tb.Insert(sqltypes.Row{sqltypes.NewNull(sqltypes.Int64), sqltypes.NewString("x")}); err == nil {
		t.Fatal("NULL in non-nullable column accepted")
	}
	if _, err := tb.Insert(sqltypes.Row{sqltypes.NewString("x"), sqltypes.NewString("x")}); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

func TestNumericCoercion(t *testing.T) {
	store := storage.NewStore(storage.DefaultBufferPoolBytes)
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "f", Typ: sqltypes.Float64})
	tb := New(store, "t", schema, smallOpts())
	if _, err := tb.Insert(sqltypes.Row{sqltypes.NewInt(3)}); err != nil {
		t.Fatal(err)
	}
	snap := tb.Snapshot()
	if v := snap.Delta[0][0]; v.Typ != sqltypes.Float64 || v.F != 3.0 {
		t.Fatalf("coercion wrong: %#v", v)
	}
}

func TestMergeSmallGroups(t *testing.T) {
	tb := newTable(t) // RowGroupSize 100
	// Six undersized groups of 30 rows each via repeated small bulk loads.
	for g := 0; g < 6; g++ {
		rows := make([]sqltypes.Row, 30)
		for i := range rows {
			rows[i] = mkRow(int64(g*30 + i))
		}
		if err := tb.BulkLoad(rows); err != nil {
			t.Fatal(err)
		}
	}
	if st := tb.Stat(); st.CompressedGroups != 6 {
		t.Fatalf("precondition: groups = %d", st.CompressedGroups)
	}
	// Delete a few rows so merge also compacts ghosts.
	tb.DeleteWhere(func(r sqltypes.Row) bool { return r[0].I < 10 })

	merged, err := tb.MergeSmallGroups()
	if err != nil {
		t.Fatal(err)
	}
	if merged <= 0 {
		t.Fatalf("merged = %d", merged)
	}
	st := tb.Stat()
	if st.CompressedGroups != 2 { // 170 live rows -> 100 + 70
		t.Fatalf("groups after merge = %d (%+v)", st.CompressedGroups, st)
	}
	if st.DeletedRows != 0 {
		t.Fatalf("merge kept delete bitmap entries: %+v", st)
	}
	if tb.Rows() != 170 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	got := collect(t, tb)
	for i := int64(10); i < 180; i++ {
		if got[i] != 1 {
			t.Fatalf("row %d count = %d", i, got[i])
		}
	}
	// Merging again is a no-op when only one small group remains.
	if m2, err := tb.MergeSmallGroups(); err != nil || m2 != 0 {
		t.Fatalf("second merge = %d, %v", m2, err)
	}
}

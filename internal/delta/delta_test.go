package delta

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"apollo/internal/sqltypes"
)

func row(i int64, s string) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewString(s)}
}

func TestInsertGetDelete(t *testing.T) {
	s := NewStore(1)
	k1, err := s.InsertAt(row(1, "one"), 0)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := s.InsertAt(row(2, "two"), 0)
	if k1 == k2 {
		t.Fatal("duplicate keys")
	}
	got, ok := s.Get(k1)
	if !ok || got[0].I != 1 || got[1].S != "one" {
		t.Fatalf("Get = %v", got)
	}
	if s.MarkDeleted(k1, 0, 0, MaxTS) != MarkOK || s.MarkDeleted(k1, 0, 0, MaxTS) != MarkNotFound {
		t.Fatal("delete semantics wrong")
	}
	if s.Rows() != 1 {
		t.Fatalf("Rows = %d", s.Rows())
	}
	if _, ok := s.Get(k1); ok {
		t.Fatal("deleted row still visible")
	}
}

func TestScanOrder(t *testing.T) {
	s := NewStore(1)
	for i := int64(0); i < 100; i++ {
		s.InsertAt(row(i, "x"), 0)
	}
	var prev uint64
	first := true
	n := 0
	s.Scan(func(k uint64, r sqltypes.Row) {
		if !first && k <= prev {
			t.Fatal("scan out of order")
		}
		prev, first = k, false
		n++
	})
	if n != 100 {
		t.Fatalf("scan: n=%d", n)
	}
}

func TestLifecycle(t *testing.T) {
	s := NewStore(1)
	s.InsertAt(row(1, "a"), 0)
	if s.State() != Open {
		t.Fatal("not open")
	}
	s.Close()
	if s.State() != Closed {
		t.Fatal("not closed")
	}
	if _, err := s.InsertAt(row(2, "b"), 0); err == nil {
		t.Fatal("insert into closed store accepted")
	}
	keys, rows, err := s.BeginMove()
	if err != nil || len(keys) != 1 || len(rows) != 1 {
		t.Fatalf("BeginMove: %v %v %v", keys, rows, err)
	}
	if s.State() != Moving {
		t.Fatal("not moving")
	}
	// BeginMove on a non-closed store fails.
	if _, _, err := s.BeginMove(); err == nil {
		t.Fatal("double BeginMove accepted")
	}
}

func TestDeleteBufferDuringMove(t *testing.T) {
	s := NewStore(1)
	var keys []uint64
	for i := int64(0); i < 10; i++ {
		k, _ := s.InsertAt(row(i, "x"), 0)
		keys = append(keys, k)
	}
	s.Close()
	if _, _, err := s.BeginMove(); err != nil {
		t.Fatal(err)
	}
	// Deletes while moving are buffered.
	s.MarkDeleted(keys[3], 0, 0, MaxTS)
	s.MarkDeleted(keys[7], 0, 0, MaxTS)
	buf := s.DrainDeleteBuffer()
	if len(buf) != 2 || buf[0].Key != keys[3] || buf[1].Key != keys[7] {
		t.Fatalf("delete buffer = %v", buf)
	}
	if len(s.DrainDeleteBuffer()) != 0 {
		t.Fatal("drain not idempotent")
	}
	// Deleting a missing key while moving does not buffer.
	s.MarkDeleted(keys[3], 0, 0, MaxTS)
	if len(s.DrainDeleteBuffer()) != 0 {
		t.Fatal("phantom delete buffered")
	}
}

func TestDeleteBitmapBasics(t *testing.T) {
	d := NewDeleteBitmap()
	if d.IsDeleted(1, 5) {
		t.Fatal("fresh bitmap has deletes")
	}
	if !d.Delete(1, 5) || d.Delete(1, 5) {
		t.Fatal("delete-once semantics wrong")
	}
	if !d.IsDeleted(1, 5) || d.IsDeleted(1, 6) || d.IsDeleted(2, 5) {
		t.Fatal("IsDeleted wrong")
	}
	d.Delete(1, 100)
	d.Delete(2, 0)
	if d.Count() != 3 || d.DeletedInGroup(1) != 2 {
		t.Fatalf("counts: %d, %d", d.Count(), d.DeletedInGroup(1))
	}
	d.DropGroup(1)
	if d.Count() != 1 || d.IsDeleted(1, 5) {
		t.Fatal("DropGroup wrong")
	}
}

func TestDeleteBitmapSnapshotIsolation(t *testing.T) {
	d := NewDeleteBitmap()
	d.Delete(1, 2)
	snap := d.Snapshot(1)
	d.Delete(1, 3)
	if snap.Get(3) {
		t.Fatal("snapshot saw later delete")
	}
	if !snap.Get(2) {
		t.Fatal("snapshot missing earlier delete")
	}
	if d.Snapshot(99) != nil {
		t.Fatal("snapshot of clean group should be nil")
	}
}

func TestDeleteBitmapConcurrent(t *testing.T) {
	d := NewDeleteBitmap()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				d.Delete(g, i)
				d.IsDeleted(g, i)
				if i%100 == 0 {
					d.Snapshot(g)
				}
			}
		}(g)
	}
	wg.Wait()
	if d.Count() != 8000 {
		t.Fatalf("Count = %d", d.Count())
	}
}

// checkStore compares the store with want (key -> int column) through Scan
// order, Get and Rows, and bounds its slot count.
func checkStore(t *testing.T, s *Store, want map[uint64]int64, step int) {
	t.Helper()
	var keys []uint64
	s.Scan(func(k uint64, r sqltypes.Row) {
		if got, ok := s.Get(k); !ok || got[0].I != want[k] || r[0].I != want[k] {
			t.Fatalf("step %d: key %d: Scan %v, Get %v %v; want %d", step, k, r, got, ok, want[k])
		}
		keys = append(keys, k)
	})
	if wantKeys := slices.Sorted(maps.Keys(want)); s.Rows() != len(want) || !slices.Equal(keys, wantKeys) || len(s.keys) > 2*s.Rows()+compactMinDead {
		t.Fatalf("step %d: Rows %d, %d slots, Scan keys %v; want keys %v", step, s.Rows(), len(s.keys), keys, wantKeys)
	}
}

// TestStoreSlotsStayBounded cycles two live rows through 10,000
// remove+insert pairs, removing through every removal path (a physical
// delete, a purged committed tombstone, an aborted provisional insert). Dead
// slots must be compacted away, or every scan of a long-lived hot store walks
// all the rows it ever held.
func TestStoreSlotsStayBounded(t *testing.T) {
	const txn = TxnBit | 7
	s := NewStore(1)
	want := map[uint64]int64{}
	var queue []uint64 // live keys, oldest first
	insert := func(i int64) {
		begin := uint64(0)
		if i%3 == 2 {
			begin = txn // provisional, removed by AbortInsert
		}
		k, _ := s.InsertAt(row(i, "x"), begin)
		want[k] = i
		queue = append(queue, k)
	}
	insert(0)
	insert(1)
	for i := int64(2); i < 10002; i++ {
		k := queue[0]
		queue = queue[1:]
		switch {
		case s.Version(k).Begin == txn:
			s.AbortInsert(k)
		case i%2 == 0:
			s.MarkDeleted(k, 0, 0, MaxTS)
		default: // tombstone, then purge it
			s.MarkDeleted(k, uint64(i), 0, MaxTS)
			s.Purge(uint64(i))
		}
		delete(want, k)
		insert(i)
		checkStore(t, s, want, int(i))
		mine := 0
		for _, k := range queue {
			if s.Version(k).Begin == txn {
				mine++
			}
		}
		if s.LiveRows(MaxTS, 0) != len(want)-mine || s.LiveRows(MaxTS, txn) != len(want) {
			t.Fatalf("step %d: LiveRows %d (own %d), %d rows of which %d provisional", i, s.LiveRows(MaxTS, 0), s.LiveRows(MaxTS, txn), len(want), mine)
		}
	}

	// Settle and move: BeginMove returns the live keys in order, as copies
	// that deletes compacting the Moving store leave intact.
	for i := int64(0); i < 200; i++ {
		insert(3 * i)
	}
	for _, k := range queue {
		s.CommitInsert(k, 1)
	}
	s.Purge(MaxTS)
	s.Close()
	keys, rows, err := s.BeginMove()
	if err != nil || !slices.Equal(keys, slices.Sorted(maps.Keys(want))) {
		t.Fatalf("BeginMove: %v, keys %v", err, keys)
	}
	moved := maps.Clone(want)
	for _, k := range keys[:150] {
		s.MarkDeleted(k, 0, 0, MaxTS)
		delete(want, k)
	}
	checkStore(t, s, want, -1)
	if len(s.DrainDeleteBuffer()) != 150 {
		t.Fatal("deletes during the move were not all buffered")
	}
	for i, k := range keys {
		if rows[i][0].I != moved[k] {
			t.Fatalf("BeginMove row %d changed by compaction: %v, want %d", k, rows[i], moved[k])
		}
	}
}

// TestStoreRandomOpsAgainstOracle drives inserts, deletes and the restore
// path (overwrites, fills below the right edge, removals) in random order
// and checks the store against a map after every step.
func TestStoreRandomOpsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewStore(1)
	want := map[uint64]int64{}
	for step := 0; step < 2000; step++ {
		k, v := uint64(rng.Int63n(int64(s.NextKey())+1)), rng.Int63()
		switch op := rng.Intn(10); {
		case op < 4:
			k, _ = s.InsertAt(row(v, "i"), 0)
			want[k] = v
		case op < 7:
			if _, present := want[k]; (s.MarkDeleted(k, 0, 0, MaxTS) == MarkOK) != present {
				t.Fatalf("step %d: MarkDeleted(%d) disagrees with presence %v", step, k, present)
			}
			delete(want, k)
		case op < 9:
			s.RestoreRow(k, row(v, "r"))
			want[k] = v
		default:
			s.RestoreDelete(k)
			delete(want, k)
		}
		checkStore(t, s, want, step)
	}
}

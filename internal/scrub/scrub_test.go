package scrub

import (
	"bytes"
	"context"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"apollo/internal/sched"
	"apollo/internal/storage"
	"apollo/internal/wal"
)

func newBackedStore(t *testing.T) (*storage.Store, *storage.DiskBacking) {
	t.Helper()
	s := storage.NewStore(1 << 20)
	b, err := storage.OpenDiskBacking(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachBacking(b)
	return s, b
}

func corruptFile(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-3] ^= 0xA5
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// One pass over a mixed population: a clean blob stays clean, a blob with a
// rotted backing file is repaired from memory, and a blob corrupt on every
// copy is quarantined — all tallied in the report.
func TestRunPassRepairsAndQuarantines(t *testing.T) {
	s, b := newBackedStore(t)
	clean, err := s.Put(bytes.Repeat([]byte("clean-"), 64), storage.None)
	if err != nil {
		t.Fatal(err)
	}
	fileBad, err := s.Put(bytes.Repeat([]byte("file-rot-"), 64), storage.None)
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := s.Put(bytes.Repeat([]byte("doomed-"), 64), storage.None)
	if err != nil {
		t.Fatal(err)
	}
	corruptFile(t, b.Path(fileBad))
	if err := s.Corrupt(doomed); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, b.Path(doomed))

	sc := New(s, nil, "", nil, nil, 0)
	rep, err := sc.RunPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blobs != 3 {
		t.Fatalf("Blobs = %d, want 3", rep.Blobs)
	}
	if rep.RepairedBacking != 1 {
		t.Fatalf("RepairedBacking = %d, want 1", rep.RepairedBacking)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", rep.Quarantined)
	}
	if rep.Bytes <= 0 {
		t.Fatal("no bytes accounted")
	}

	// Clean blob still serves; quarantined one never does.
	if _, err := s.Get(clean); err != nil {
		t.Fatalf("Get(clean) after pass: %v", err)
	}
	if _, err := s.Get(doomed); !storage.IsQuarantined(err) {
		t.Fatalf("Get(doomed): got %v, want quarantine", err)
	}

	// A second pass sees the quarantined blob as a skip, nothing to repair.
	rep2, err := sc.RunPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.RepairedBacking != 0 || rep2.Quarantined != 0 {
		t.Fatalf("second pass repaired %d / quarantined %d, want 0/0",
			rep2.RepairedBacking, rep2.Quarantined)
	}
	if rep2.Skipped != 1 {
		t.Fatalf("second pass Skipped = %d, want 1", rep2.Skipped)
	}
	if last, passes := sc.Last(); last == nil || passes != 2 {
		t.Fatalf("Last() = %v, %d; want report, 2", last, passes)
	}
}

// WAL coverage: a corrupted closed segment is detected and the self-heal
// checkpoint callback fires; a clean log triggers nothing.
func TestRunPassVerifiesWALAndSelfHeals(t *testing.T) {
	s, _ := newBackedStore(t)
	dir := t.TempDir()
	w, err := wal.Create(dir, 1, wal.Options{Policy: wal.FsyncAlways, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	// Enough records to roll through several segments.
	for i := 0; i < 12; i++ {
		rec := &wal.Record{Type: wal.TDeltaInsert, Table: "t", A: 1, B: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, 24)}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stat()
	if st.Seq < 2 {
		t.Fatalf("expected rotation, still on segment %d", st.Seq)
	}

	var healed atomic.Int64
	sc := New(s, nil, dir, func() uint64 { return w.Stat().Seq },
		func() error { healed.Add(1); return nil }, 0)

	rep, err := sc.RunPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.WALSegments == 0 || rep.WALRecords == 0 {
		t.Fatalf("clean pass verified %d segments / %d records, want > 0",
			rep.WALSegments, rep.WALRecords)
	}
	if rep.WALCorruption != nil || healed.Load() != 0 {
		t.Fatal("clean log must not report corruption or trigger a checkpoint")
	}

	// Flip a byte inside the first (closed) segment's frame area.
	seg := dir + "/00000001.wal"
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-5] ^= 0xFF
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err = sc.RunPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.WALCorruption == nil {
		t.Fatal("corrupted closed segment not detected")
	}
	if !rep.CheckpointTriggered || healed.Load() != 1 {
		t.Fatal("self-heal checkpoint did not fire")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// The scrub job runs one pass per interval of the scheduler's clock, and
// none once the scheduler has stopped.
func TestBackgroundLoopRunsAndStops(t *testing.T) {
	s, _ := newBackedStore(t)
	if _, err := s.Put([]byte("background-blob"), storage.None); err != nil {
		t.Fatal(err)
	}
	sc := New(s, nil, "", nil, nil, 0)
	clk := new(sched.Manual)
	bg := sched.New(clk.Now)
	bg.Add(sc.Job(time.Minute))
	bg.Settle()
	for want := int64(0); want <= 2; want++ {
		if _, passes := sc.Last(); passes != want {
			t.Fatalf("passes = %d, want %d", passes, want)
		}
		clk.Advance(time.Minute)
		bg.Settle()
	}
	bg.Stop()
	bg.Stop() // idempotent
	_, after := sc.Last()
	clk.Advance(time.Hour)
	if _, now := sc.Last(); now != after {
		t.Fatal("passes advanced after Stop")
	}
}

// Pacing: with a tiny byte budget, a pass over real data must take measurable
// wall-clock time (i.e. the limiter actually sleeps).
func TestPacingThrottles(t *testing.T) {
	s, _ := newBackedStore(t)
	for i := 0; i < 4; i++ {
		if _, err := s.Put(bytes.Repeat([]byte{byte(i)}, 4096), storage.None); err != nil {
			t.Fatal(err)
		}
	}
	sc := New(s, nil, "", nil, nil, 64<<10)
	startT := time.Now()
	rep, err := sc.RunPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(startT); el < 20*time.Millisecond {
		t.Fatalf("pass over %d bytes at 64KiB/s finished in %v — pacing not applied", rep.Bytes, el)
	}
	// And a cancelled context aborts mid-pace promptly.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sc.RunPass(ctx); err == nil {
		t.Fatal("cancelled pass returned nil error")
	}
}

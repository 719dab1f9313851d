package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apollo/internal/sched"
)

func mkRec(i int) *Record {
	return &Record{
		Type:    TDeltaInsert,
		Table:   "t",
		A:       uint64(i % 7),
		B:       uint64(i),
		Payload: []byte(fmt.Sprintf("row-%d", i)),
	}
}

func collect(t *testing.T, dir string, fromSeq uint64, repair bool) ([]*Record, ScanResult) {
	t.Helper()
	var recs []*Record
	res, err := Scan(dir, fromSeq, repair, func(_ uint64, r *Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return recs, res
}

func TestRoundTrip(t *testing.T) {
	for _, policy := range []Policy{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Create(dir, 1, Options{Policy: policy, Interval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			const n = 100
			for i := 0; i < n; i++ {
				if err := w.Append(mkRec(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			recs, res := collect(t, dir, 1, false)
			if len(recs) != n {
				t.Fatalf("got %d records, want %d", len(recs), n)
			}
			if res.Truncated {
				t.Fatal("unexpected torn tail")
			}
			for i, r := range recs {
				want := mkRec(i)
				if r.Type != want.Type || r.Table != want.Table || r.A != want.A || r.B != want.B || !bytes.Equal(r.Payload, want.Payload) {
					t.Fatalf("record %d mismatch: got %+v want %+v", i, r, want)
				}
			}
		})
	}
}

func TestRecordRoundTripAllTypes(t *testing.T) {
	recs := []*Record{
		{Type: TCreateTable, Table: "orders", Payload: []byte{1, 2, 3}},
		{Type: TDropTable, Table: "orders"},
		{Type: TDeltaInsert, Table: "t", A: 3, B: 999, Payload: []byte("enc")},
		{Type: TDeltaDelete, Table: "t", A: 3, B: 999},
		{Type: TDeleteSet, Table: "t", A: 7, B: 12345},
		{Type: TDeltaClose, Table: "t", A: 1, B: 2},
		{Type: TGroupPublish, Table: "t", A: 4, Payload: bytes.Repeat([]byte{0xAB}, 1000)},
		{Type: TGroupRetire, Table: "t", A: 9},
		{Type: TDeltaDrop, Table: "t", A: 5},
		{Type: TTableReset, Table: "t", A: 11},
		{Type: TCheckpointBegin, A: 42},
		{Type: TCheckpointEnd, A: 42},
	}
	for _, r := range recs {
		got, err := UnmarshalRecord(r.AppendBody(nil))
		if err != nil {
			t.Fatalf("%v: %v", r.Type, err)
		}
		if got.Type != r.Type || got.Table != r.Table || got.A != r.A || got.B != r.B || !bytes.Equal(got.Payload, r.Payload) {
			t.Fatalf("%v round trip: got %+v want %+v", r.Type, got, r)
		}
	}
}

func TestRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every few records.
	w, err := Create(dir, 1, Options{Policy: FsyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := w.Append(mkRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Stat().Seq < 3 {
		t.Fatalf("expected rotation, still on segment %d", w.Stat().Seq)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, dir, 1, false)
	if len(recs) != n {
		t.Fatalf("got %d records across segments, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.B != uint64(i) {
			t.Fatalf("record %d out of order: B=%d", i, r.B)
		}
	}
}

func TestRemoveSegmentsBelow(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 1, Options{Policy: FsyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.Append(mkRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 120; i++ {
		if err := w.Append(mkRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.RemoveSegmentsBelow(seq); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seqs {
		if s < seq {
			t.Fatalf("segment %d survived RemoveSegmentsBelow(%d)", s, seq)
		}
	}
	recs, _ := collect(t, dir, seq, false)
	if len(recs) != 20 {
		t.Fatalf("got %d records after truncation, want 20", len(recs))
	}
	if recs[0].B != 100 {
		t.Fatalf("first surviving record B=%d, want 100", recs[0].B)
	}
}

// TestTornTail chops the final segment at every byte boundary inside its last
// frame and verifies the scan returns exactly the unchopped prefix, flags the
// tail, and (with repair) physically truncates so a second scan is clean.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 1, Options{Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	var sizes []int64 // file size after each append
	for i := 0; i < n; i++ {
		if err := w.Append(mkRec(i)); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, w.Stat().TotalBytes)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, SegmentName(1))
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	for cut := sizes[n-2] + 1; cut < sizes[n-1]; cut++ {
		work := t.TempDir()
		if err := os.WriteFile(filepath.Join(work, SegmentName(1)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, res := collect(t, work, 1, true)
		if len(recs) != n-1 {
			t.Fatalf("cut=%d: got %d records, want %d", cut, len(recs), n-1)
		}
		if !res.Truncated {
			t.Fatalf("cut=%d: torn tail not flagged", cut)
		}
		// Repair truncated the file; a second scan must be clean.
		recs2, res2 := collect(t, work, 1, false)
		if len(recs2) != n-1 || res2.Truncated {
			t.Fatalf("cut=%d: post-repair scan got %d records, truncated=%v", cut, len(recs2), res2.Truncated)
		}
		fi, err := os.Stat(filepath.Join(work, SegmentName(1)))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != sizes[n-2] {
			t.Fatalf("cut=%d: repaired size %d, want %d", cut, fi.Size(), sizes[n-2])
		}
	}
}

// TestCorruptMidFile flips a byte in a non-final frame: that is real damage,
// not a torn write, and must surface as ErrCorrupt.
func TestCorruptMidFile(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 1, Options{Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(mkRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, SegmentName(1))
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	buf[segHeaderLen+frameHeadLen+2] ^= 0x40 // inside the first frame's body
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Scan(dir, 1, true, func(uint64, *Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-file corruption: got %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Seg != 1 {
		t.Fatalf("expected CorruptError naming segment 1, got %v", err)
	}
}

// TestCorruptEarlierSegment damages the tail of a NON-final segment: with a
// later segment present, that is mid-log damage, not a torn write.
func TestCorruptEarlierSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 1, Options{Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(mkRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 10; i++ {
		if err := w.Append(mkRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, SegmentName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	_, err = Scan(dir, 1, true, func(uint64, *Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged non-final segment: got %v, want ErrCorrupt", err)
	}
}

func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 1, Options{Policy: FsyncInterval, Interval: time.Millisecond, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := w.Append(mkRec(g*per + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, dir, 1, false)
	if len(recs) != writers*per {
		t.Fatalf("got %d records, want %d", len(recs), writers*per)
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.B] {
			t.Fatalf("duplicate record B=%d", r.B)
		}
		seen[r.B] = true
	}
}

// The FsyncInterval flush runs on its own as a scheduler job: appends turn
// durable Interval after the job was added, not a nanosecond earlier, and
// once an fsync failure poisons the writer the job is never due again.
func TestIntervalFlushJob(t *testing.T) {
	const interval = 10 * time.Millisecond
	w, err := Create(t.TempDir(), 1, Options{Policy: FsyncInterval, Interval: interval})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() }) // poisoned below, so Close fails
	clk := new(sched.Manual)
	s := sched.New(clk.Now)
	t.Cleanup(s.Stop) // before Close: the job must not outlive the writer
	flush := w.FlushJob()
	var runs atomic.Int32
	run := flush.Run
	flush.Run = func(ctx context.Context) { runs.Add(1); run(ctx) }
	s.Add(flush)

	for i := 0; i < 10; i++ {
		if err := w.Append(mkRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Stat()
	if before.SyncedBytes >= before.TotalBytes {
		t.Fatalf("appends durable before any flush: %+v", before)
	}
	clk.Advance(interval - 1)
	s.Settle()
	if st := w.Stat(); st.SyncedBytes != before.SyncedBytes || runs.Load() != 0 {
		t.Fatalf("1ns before the interval: synced %d (was %d), %d flushes", st.SyncedBytes, before.SyncedBytes, runs.Load())
	}
	clk.Advance(1)
	s.Settle()
	if st := w.Stat(); st.SyncedBytes != st.TotalBytes || runs.Load() != 1 {
		t.Fatalf("at the interval: synced %d of %d bytes, %d flushes", st.SyncedBytes, st.TotalBytes, runs.Load())
	}

	w.SetFailSync(1)
	if err := w.Append(mkRec(10)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(interval)
	s.Settle()
	if !w.Stat().Poisoned || runs.Load() != 2 {
		t.Fatalf("failed flush: poisoned %v after %d flushes, want true after 2", w.Stat().Poisoned, runs.Load())
	}
	fsyncs := mFsyncs.Value()
	clk.Advance(10 * interval)
	s.Settle()
	if runs.Load() != 2 || mFsyncs.Value() != fsyncs {
		t.Fatalf("poisoned writer: %d flushes and %d more fsyncs, want 2 and 0", runs.Load(), mFsyncs.Value()-fsyncs)
	}
	if at := flush.Due(clk.Now(), clk.Now().Add(-time.Hour), false); !at.IsZero() {
		t.Fatalf("poisoned writer's flush due at %v, want never", at)
	}
}

// TestGroupCommitWatermark: under FsyncAlways every acknowledged append is
// durable (SyncedBytes covers TotalBytes whenever the writer is idle).
func TestGroupCommitWatermark(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 1, Options{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 50; i++ {
		if err := w.Append(mkRec(i)); err != nil {
			t.Fatal(err)
		}
		st := w.Stat()
		if st.SyncedBytes < st.TotalBytes {
			t.Fatalf("append %d acknowledged before durable: synced %d < total %d", i, st.SyncedBytes, st.TotalBytes)
		}
	}
}

func TestScanFromSeqSkipsOld(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 1, Options{Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(mkRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 8; i++ {
		if err := w.Append(mkRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, res := collect(t, dir, seq, false)
	if len(recs) != 3 || recs[0].B != 5 {
		t.Fatalf("scan from seq %d: got %d records starting at B=%v", seq, len(recs), recs)
	}
	if res.LastSeq != seq {
		t.Fatalf("LastSeq=%d, want %d", res.LastSeq, seq)
	}
}

// TestScanRejectsMissingSegments: a hole in the segment sequence (a deleted
// or lost file) means committed records are gone; the scan must surface
// ErrCorrupt, not silently replay around it.
func TestScanRejectsMissingSegments(t *testing.T) {
	mkLog := func(t *testing.T) string {
		dir := t.TempDir()
		w, err := Create(dir, 1, Options{Policy: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		for seg := 0; seg < 3; seg++ {
			for i := 0; i < 5; i++ {
				if err := w.Append(mkRec(seg*5 + i)); err != nil {
					t.Fatal(err)
				}
			}
			if seg < 2 {
				if _, err := w.Rotate(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("gap-mid-log", func(t *testing.T) {
		dir := mkLog(t)
		if err := os.Remove(filepath.Join(dir, SegmentName(2))); err != nil {
			t.Fatal(err)
		}
		_, err := Scan(dir, 1, false, func(uint64, *Record) error { return nil })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("segment gap: got %v, want ErrCorrupt", err)
		}
	})
	t.Run("missing-checkpoint-segment", func(t *testing.T) {
		dir := mkLog(t)
		if err := os.Remove(filepath.Join(dir, SegmentName(1))); err != nil {
			t.Fatal(err)
		}
		// A checkpoint set fromSeq=1; the log starting at 2 means segment 1's
		// committed records are gone.
		_, err := Scan(dir, 1, false, func(uint64, *Record) error { return nil })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("missing first segment: got %v, want ErrCorrupt", err)
		}
	})
}

func TestEmptyDirScan(t *testing.T) {
	res, err := Scan(t.TempDir(), 0, true, func(uint64, *Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 0 || res.LastSeq != 0 || res.Truncated {
		t.Fatalf("empty dir scan: %+v", res)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 1, Options{Policy: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(&Record{Type: TDeltaInsert, Table: "t", Payload: make([]byte, MaxRecordBytes)}); err == nil {
		t.Fatal("oversize record accepted")
	}
	if err := w.Append(mkRec(1)); err != nil {
		t.Fatalf("writer unusable after oversize reject: %v", err)
	}
}

// TestWaitDurableSharesFsync forces the group-commit path deterministically:
// with the sync token held, N appenders all block in WaitDurable; releasing
// the token lets exactly one of them fsync, and that single fsync must cover
// every waiter. This is the cross-session group commit — N commits, one
// fsync — without depending on scheduler timing.
func TestWaitDurableSharesFsync(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 1, Options{Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	w.syncSem <- struct{}{} // hold the sync token: waiters must queue

	const waiters = 16
	var ready sync.WaitGroup
	var done sync.WaitGroup
	before := mFsyncs.Value()
	for i := 0; i < waiters; i++ {
		ready.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			target, err := w.AppendAsync(mkRec(i))
			ready.Done()
			if err != nil {
				t.Error(err)
				return
			}
			if err := w.WaitDurable(context.Background(), target); err != nil {
				t.Error(err)
			}
		}(i)
	}
	ready.Wait() // every record is appended; waiters are queuing on the token
	<-w.syncSem  // release: one waiter becomes the group syncer
	done.Wait()

	if got := mFsyncs.Value() - before; got != 1 {
		t.Fatalf("%d commits used %d fsyncs, want exactly 1 shared fsync", waiters, got)
	}
	st := w.Stat()
	if st.SyncedBytes < st.TotalBytes {
		t.Fatalf("watermark %d below total %d after group sync", st.SyncedBytes, st.TotalBytes)
	}
}

package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Segment file layout:
//
//	header   16 bytes: 8-byte magic "APWAL001" + segment seq uint64 LE
//	frames   repeated: [len uint32 LE][crc32c uint32 LE][body]
//
// crc32c (Castagnoli) covers the body only. A frame is valid when its declared
// length is in (0, MaxRecordBytes], the body is fully present, and the CRC
// matches.

const (
	segMagic      = "APWAL001"
	segHeaderLen  = 16
	frameHeadLen  = 8
	segFileSuffix = ".wal"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Policy selects when appended records are fsynced to disk.
type Policy uint8

// Fsync policies.
const (
	// FsyncAlways group-commits: every Append returns only after the record
	// is durable (concurrent appenders share one fsync).
	FsyncAlways Policy = iota
	// FsyncInterval fsyncs on a background timer; a crash loses at most one
	// interval of acknowledged appends.
	FsyncInterval
	// FsyncOff never fsyncs during operation (Close still does); durability
	// is whatever the OS page cache survives.
	FsyncOff
)

func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	default:
		return "off"
	}
}

// ParsePolicy maps "always" / "interval" / "off" to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always", "":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	default:
		return FsyncAlways, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or off)", s)
	}
}

// Options configure a Writer.
type Options struct {
	// Policy selects the fsync discipline (default FsyncAlways).
	Policy Policy
	// Interval is the FsyncInterval flush period (default 10ms).
	Interval time.Duration
	// SegmentBytes rotates to a new segment file once the current one
	// reaches this size (default 16 MiB).
	SegmentBytes int64
	// CrashAt is a crash-injection test hook: once the writer's cumulative
	// byte count (headers included) would pass CrashAt, it writes only the
	// bytes up to that offset, flushes them, and kills the process. Zero
	// disables it. See TestCrashMatrix in the root package.
	CrashAt int64
	// OnPoison, if set, is invoked exactly once when the writer poisons
	// itself after a failed fsync (fail-stop; see ErrPoisoned). It runs on
	// the goroutine that observed the failure and must not call back into
	// the writer.
	OnPoison func(error)
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 10 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
	return o
}

// Writer appends framed records to segment files. It is safe for concurrent
// use; appends serialize internally and FsyncAlways commits in groups.
type Writer struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	seq      uint64
	segBytes int64 // bytes written to the current segment
	total    int64 // cumulative bytes across all segments, headers included
	closed   bool

	synced  atomic.Int64  // high-water mark of durable cumulative bytes
	syncSem chan struct{} // cap 1: held by the goroutine doing the group fsync
	noteMu  sync.Mutex
	note    chan struct{} // closed and replaced whenever synced advances

	// poison is set once, by the first failed fsync, and never cleared
	// (fsyncgate fail-stop; see Poison). injSyncFail / injNoSpaceIn are the
	// deterministic fault-injection counters (SetFailSync /
	// SetAppendNoSpace); injNoSpaceIn is guarded by mu.
	poison       atomic.Pointer[PoisonedError]
	injSyncFail  atomic.Int64
	injNoSpaceIn int64

	intervalStop chan struct{}
	intervalDone chan struct{}
}

// Create opens a writer on dir starting a fresh segment with the given
// sequence number. dir is created if missing. Existing segments are left
// untouched; recovery chooses startSeq past them.
func Create(dir string, startSeq uint64, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	w := &Writer{
		dir:     dir,
		opts:    opts.withDefaults(),
		seq:     startSeq,
		syncSem: make(chan struct{}, 1),
		note:    make(chan struct{}),
	}
	if err := w.openSegmentLocked(startSeq); err != nil {
		return nil, err
	}
	if w.opts.Policy == FsyncInterval {
		w.intervalStop = make(chan struct{})
		w.intervalDone = make(chan struct{})
		go w.intervalLoop()
	}
	return w, nil
}

// SegmentName returns the file name of segment seq.
func SegmentName(seq uint64) string {
	return fmt.Sprintf("%08d%s", seq, segFileSuffix)
}

// parseSegmentName extracts the sequence number from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, segFileSuffix)
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the segment sequence numbers present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// createSegmentFile opens a fresh segment file and preallocates its full
// budget up front (fallocate with KEEP_SIZE on Linux: blocks are reserved
// but the file size still tracks writes, so recovery scans are unchanged).
// With the space reserved, appends into the segment — including the commit
// record written while the DB flips read-only under ENOSPC — cannot
// themselves die of disk exhaustion.
func (w *Writer) createSegmentFile(seq uint64) (*os.File, error) {
	path := filepath.Join(w.dir, SegmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment %d: %w", seq, err)
	}
	if err := preallocate(f, w.opts.SegmentBytes); err != nil {
		f.Close()       //nolint:synccheck — discarding a file we failed to provision
		os.Remove(path) // best effort: nothing references the segment yet
		if IsNoSpace(err) {
			return nil, &NoSpaceError{Op: fmt.Sprintf("preallocate segment %d", seq), Cause: err}
		}
		return nil, fmt.Errorf("wal: preallocate segment %d: %w", seq, err)
	}
	return f, nil
}

func (w *Writer) openSegmentLocked(seq uint64) error {
	f, err := w.createSegmentFile(seq)
	if err != nil {
		return err
	}
	w.f = f
	w.seq = seq
	w.segBytes = 0
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	if err := w.writeRawLocked(hdr[:], false); err != nil {
		return err
	}
	mSegments.Inc()
	return nil
}

// writeRawLocked writes b to the current segment applying the crash-injection
// hook: if the cumulative byte count would pass CrashAt, only the prefix up
// to CrashAt is written (then flushed) and the process exits — simulating a
// torn write at an arbitrary log offset.
//
// A failed or short write is unwound — the file is truncated back to the
// pre-write offset and the cursor repositioned (Truncate does not move it) —
// so a disk-full append never leaves a torn frame mid-segment. ENOSPC then
// surfaces as a typed NoSpaceError and the writer stays usable; if the
// unwind itself fails the segment tail is unknowable and the writer poisons
// (fail-stop). isFrame marks record-frame writes, the only ones subject to
// disk-full injection.
func (w *Writer) writeRawLocked(b []byte, isFrame bool) error {
	if w.opts.CrashAt > 0 {
		remaining := w.opts.CrashAt - w.total
		if remaining <= 0 {
			w.f.Sync() //nolint:synccheck — crash-injection hook, process exits
			os.Exit(3)
		}
		if int64(len(b)) > remaining {
			w.f.Write(b[:remaining])
			w.f.Sync() //nolint:synccheck — crash-injection hook, process exits
			os.Exit(3)
		}
	}
	var n int
	var werr error
	if isFrame && w.injNoSpaceIn == 1 {
		// Simulated disk-full: write a genuine partial prefix so the
		// truncate-back unwind runs exactly as it would for a real short
		// write, then report ENOSPC.
		n, _ = w.f.Write(b[:len(b)/2])
		werr = fmt.Errorf("injected write failure: %w", syscall.ENOSPC)
	} else {
		if isFrame && w.injNoSpaceIn > 1 {
			w.injNoSpaceIn--
		}
		n, werr = w.f.Write(b)
		if werr == nil && n != len(b) {
			werr = io.ErrShortWrite
		}
	}
	if werr != nil {
		if terr := w.f.Truncate(w.segBytes); terr != nil {
			w.Poison(fmt.Errorf("wal: unwind truncate segment %d after failed write: %w", w.seq, terr))
			return w.Poisoned()
		}
		if _, serr := w.f.Seek(w.segBytes, io.SeekStart); serr != nil {
			w.Poison(fmt.Errorf("wal: unwind seek segment %d after failed write: %w", w.seq, serr))
			return w.Poisoned()
		}
		if IsNoSpace(werr) {
			mNoSpace.Inc()
			return &NoSpaceError{Op: fmt.Sprintf("append segment %d", w.seq), Cause: werr}
		}
		return fmt.Errorf("wal: write segment %d: %w", w.seq, werr)
	}
	w.total += int64(len(b))
	w.segBytes += int64(len(b))
	return nil
}

// Append frames and appends one record. Under FsyncAlways it returns only
// once the record is durable.
func (w *Writer) Append(rec *Record) error {
	target, err := w.appendFrame(rec)
	if err != nil {
		return err
	}
	if w.opts.Policy == FsyncAlways {
		return w.WaitDurable(context.Background(), target)
	}
	return nil
}

// AppendAsync appends one record without waiting for durability under any
// policy, returning the durable target (the writer's cumulative byte offset
// after the record). Transactional DML uses it: intra-transaction records
// need no fsync of their own because a transaction is committed only by its
// TCommit record — pass the final target to WaitDurable at commit and one
// fsync covers the whole transaction (and, with concurrent sessions, their
// transactions too).
func (w *Writer) AppendAsync(rec *Record) (int64, error) {
	return w.appendFrame(rec)
}

func (w *Writer) appendFrame(rec *Record) (int64, error) {
	body := rec.AppendBody(nil)
	if len(body) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record body %d bytes exceeds max %d", len(body), MaxRecordBytes)
	}
	frame := make([]byte, frameHeadLen, frameHeadLen+len(body))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(body, castagnoli))
	frame = append(frame, body...)

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, fmt.Errorf("wal: writer closed")
	}
	if err := w.Poisoned(); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	if w.segBytes+int64(len(frame)) > w.opts.SegmentBytes && w.segBytes > segHeaderLen {
		if err := w.rotateLocked(); err != nil {
			if !IsNoSpace(err) {
				w.mu.Unlock()
				return 0, err
			}
			// Disk full while provisioning the next segment: keep appending
			// to the current (already preallocated) one instead of failing
			// the record; rotation retries on a later append. If the current
			// segment's reservation is exhausted too, the append below
			// reports ENOSPC itself.
		}
	}
	if err := w.writeRawLocked(frame, true); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	target := w.total
	w.mu.Unlock()

	mAppends.Inc()
	mAppendBytes.Add(int64(len(frame)))
	return target, nil
}

// rotateLocked seals the current segment and switches to the next one. The
// next segment is provisioned (created + preallocated) BEFORE the current
// one is touched: if the disk is full the failure surfaces there, the
// current segment stays open and writable, and the caller keeps appending.
// The seal fsync runs under every policy — once a segment is closed no
// later fsync can reach it, so the durable watermark must cover it now —
// and a seal failure poisons the writer (fsyncgate fail-stop).
func (w *Writer) rotateLocked() error {
	if err := w.Poisoned(); err != nil {
		return err
	}
	nextSeq := w.seq + 1
	nf, err := w.createSegmentFile(nextSeq)
	if err != nil {
		return err
	}
	discardNext := func() {
		nf.Close() //nolint:synccheck — discarding an empty segment we never switched to
		os.Remove(filepath.Join(w.dir, SegmentName(nextSeq)))
	}
	if err := w.syncFile(w.f); err != nil {
		discardNext()
		return err
	}
	w.advanceSynced(w.total)
	if err := w.f.Close(); err != nil {
		// The sealed data is durable, but a failing close leaves the handle
		// state unknown; fail-stop like a sync failure rather than guess.
		discardNext()
		w.Poison(fmt.Errorf("wal: close segment %d: %w", w.seq, err))
		return w.Poisoned()
	}
	w.f = nf
	w.seq = nextSeq
	w.segBytes = 0
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], nextSeq)
	if err := w.writeRawLocked(hdr[:], false); err != nil {
		// The segment is preallocated, so a header write can only fail for
		// non-space reasons; without its header the segment is unusable.
		w.Poison(fmt.Errorf("wal: write header of segment %d: %w", nextSeq, err))
		return w.Poisoned()
	}
	mSegments.Inc()
	return nil
}

// Rotate forces a segment rotation and returns the new segment's sequence
// number. Checkpoints rotate so the image's replay point is a segment
// boundary.
func (w *Writer) Rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("wal: writer closed")
	}
	if err := w.rotateLocked(); err != nil {
		return 0, err
	}
	return w.seq, nil
}

// WaitDurable blocks until the durable watermark reaches target, fsyncing if
// needed. Concurrent callers batch: at most one goroutine holds the sync
// token at a time and its fsync covers every record appended before it ran;
// the rest wait on the watermark broadcast, so N sessions committing
// concurrently share one fsync. Cancelling ctx abandons the wait (the record
// stays appended and a later fsync will cover it); the fsyncing caller itself
// completes the sync before observing cancellation.
func (w *Writer) WaitDurable(ctx context.Context, target int64) error {
	for w.synced.Load() < target {
		// A poisoned writer will never advance the watermark again: fail
		// the wait with the poison cause instead of blocking forever.
		// Poison broadcasts on note, so waiters parked below wake into
		// this check.
		if err := w.Poisoned(); err != nil {
			return err
		}
		w.noteMu.Lock()
		note := w.note
		w.noteMu.Unlock()
		// Re-check after capturing the broadcast channel: an advance between
		// the first check and the capture would otherwise be missed.
		if w.synced.Load() >= target {
			return nil
		}
		select {
		case w.syncSem <- struct{}{}:
			err := w.syncOnce()
			<-w.syncSem
			if err != nil {
				return err
			}
		case <-note:
			// Another goroutine's fsync advanced the watermark; loop.
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// syncOnce fsyncs the current segment and advances the watermark to the
// byte count the sync covered. Caller must hold the sync token, which is
// what keeps the file handle valid: Close acquires the token before closing
// the file.
func (w *Writer) syncOnce() error {
	w.mu.Lock()
	f := w.f
	cur := w.total
	w.mu.Unlock()
	if w.synced.Load() >= cur {
		return nil
	}
	if err := w.syncFile(f); err != nil {
		if errors.Is(err, errSegmentSealed) && w.synced.Load() >= cur {
			// A rotation sealed this segment after the snapshot: its fsync
			// already covered cur and advanced the watermark.
			return nil
		}
		return err
	}
	w.advanceSynced(cur)
	return nil
}

// advanceSynced raises the durable watermark and wakes every WaitDurable
// blocked on it.
func (w *Writer) advanceSynced(v int64) {
	advanceWatermark(&w.synced, v)
	w.broadcast()
}

// broadcast wakes every goroutine parked on the note channel (watermark
// advances and poisoning both use it).
func (w *Writer) broadcast() {
	w.noteMu.Lock()
	close(w.note)
	w.note = make(chan struct{})
	w.noteMu.Unlock()
}

func advanceWatermark(w *atomic.Int64, v int64) {
	for {
		cur := w.Load()
		if v <= cur || w.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Policy returns the writer's fsync policy.
func (w *Writer) Policy() Policy { return w.opts.Policy }

// Sync flushes all appended records to disk regardless of policy.
func (w *Writer) Sync() error {
	w.mu.Lock()
	target := w.total
	closed := w.closed
	w.mu.Unlock()
	if closed {
		return fmt.Errorf("wal: writer closed")
	}
	return w.WaitDurable(context.Background(), target)
}

func (w *Writer) intervalLoop() {
	defer close(w.intervalDone)
	t := time.NewTicker(w.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.intervalStop:
			return
		case <-t.C:
			w.mu.Lock()
			target := w.total
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return
			}
			if err := w.WaitDurable(context.Background(), target); err != nil {
				// Only poisoning can fail a background flush; the writer
				// will never sync again, so stop ticking.
				return
			}
		}
	}
}

// RemoveSegmentsBelow deletes segment files with sequence < seq (checkpoint
// truncation: everything below the image's replay point is covered by it).
func (w *Writer) RemoveSegmentsBelow(seq uint64) error {
	seqs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	for _, s := range seqs {
		if s < seq {
			if err := os.Remove(filepath.Join(w.dir, SegmentName(s))); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

// Stats is a snapshot of the writer's position.
type Stats struct {
	Seq         uint64 // current segment sequence
	TotalBytes  int64  // cumulative bytes appended, headers included
	SyncedBytes int64  // durable high-water mark
	Policy      Policy
	Poisoned    bool // true once an fsync failure has fail-stopped the writer
}

// Stat returns the writer's current position.
func (w *Writer) Stat() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Seq:         w.seq,
		TotalBytes:  w.total,
		SyncedBytes: w.synced.Load(),
		Policy:      w.opts.Policy,
		Poisoned:    w.poison.Load() != nil,
	}
}

// Close flushes and closes the log. Safe to call once. The final sync and
// the file close run while holding the sync token: a concurrent WaitDurable
// (a commit racing the close) holds the token while it fsyncs, so Close
// cannot close the file out from under it — and once Close's own sync
// advances the watermark, any late waiter sees its target already durable
// and returns without touching the closed file.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	if w.intervalStop != nil {
		close(w.intervalStop)
		<-w.intervalDone
	}
	w.syncSem <- struct{}{}
	defer func() { <-w.syncSem }()
	w.mu.Lock()
	f := w.f
	total := w.total
	w.mu.Unlock()
	if perr := w.Poisoned(); perr != nil {
		// fsyncgate: never retry an fsync after a failure — the kernel may
		// have dropped the dirty pages, and a "successful" retry would
		// advance the watermark over data that was never written. Close the
		// handle unsynced and surface the poison cause.
		f.Close() //nolint:synccheck — poisoned handle, close error is subsumed by the poison
		return perr
	}
	err := w.syncFile(f)
	if err == nil {
		w.advanceSynced(total)
	} else {
		// syncFile poisoned the writer (Close holds the sync token, so the
		// sealed-by-rotation race cannot occur here).
		f.Close() //nolint:synccheck — poisoned handle, close error is subsumed by the poison
		return err
	}
	return f.Close()
}

package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
)

func newBackedStore(t *testing.T) (*Store, *DiskBacking) {
	t.Helper()
	s := NewStore(1 << 20)
	b, err := OpenDiskBacking(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachBacking(b)
	return s, b
}

// Regression test for the "best effort" syncDir: a directory-fsync failure
// on the publish/rename path must propagate as the Put's error AND fire the
// sync-fail (poison) hook — not be swallowed.
func TestDirSyncFailurePropagatesAndPoisons(t *testing.T) {
	s, b := newBackedStore(t)
	var hookErr atomic.Pointer[error]
	b.SetSyncFailHook(func(err error) { hookErr.Store(&err) })

	if _, err := s.Put([]byte("healthy"), None); err != nil {
		t.Fatalf("healthy put: %v", err)
	}

	boom := errors.New("injected directory fsync failure")
	b.SetDirSyncForTest(func(string) error { return boom })
	id, err := s.Put([]byte("doomed"), None)
	if err == nil {
		t.Fatal("Put succeeded through a failed directory fsync")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("Put error %v does not propagate the dir-fsync failure", err)
	}
	if p := hookErr.Load(); p == nil || !errors.Is(*p, boom) {
		t.Fatal("sync-fail hook did not fire on directory-fsync failure")
	}
	// The failed put must not have left a visible blob.
	if id != 0 {
		t.Fatalf("failed Put returned id %d", id)
	}

	// An ENOSPC dir-fsync failure propagates but does NOT poison (space
	// exhaustion is recoverable).
	hookErr.Store(nil)
	b.SetDirSyncForTest(func(string) error { return fmt.Errorf("sync dir: %w", syscall.ENOSPC) })
	if _, err := s.Put([]byte("full"), None); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put under dir ENOSPC: got %v, want ENOSPC", err)
	}
	if hookErr.Load() != nil {
		t.Fatal("ENOSPC dir-fsync failure must not fire the poison hook")
	}

	b.SetDirSyncForTest(nil)
	if _, err := s.Put([]byte("recovered"), None); err != nil {
		t.Fatalf("Put after restoring dir fsync: %v", err)
	}
}

func TestScrubRepairsBackingFromMemory(t *testing.T) {
	s, b := newBackedStore(t)
	payload := bytes.Repeat([]byte("segment-bytes-"), 64)
	id, err := s.Put(payload, None)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt the backing FILE only (memory stays good).
	path := b.path(id)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-3] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	out, n, err := s.ScrubBlob(id)
	if err != nil {
		t.Fatal(err)
	}
	if out != ScrubRepairedBacking {
		t.Fatalf("outcome %v, want ScrubRepairedBacking", out)
	}
	if n <= 0 {
		t.Fatal("no bytes accounted")
	}
	// A second scrub verifies both copies clean.
	if out, _, err = s.ScrubBlob(id); err != nil || out != ScrubOK {
		t.Fatalf("post-repair scrub: outcome %v err %v, want ScrubOK", out, err)
	}
	if got, err := s.Get(id); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get after repair: err=%v", err)
	}
}

func TestScrubRepairsMemoryFromBacking(t *testing.T) {
	s, _ := newBackedStore(t)
	payload := bytes.Repeat([]byte("cold-archival-"), 128)
	id, err := s.Put(payload, Archival)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the IN-MEMORY at-rest copy only (Corrupt never touches the
	// backing file) — models bit rot in the resident copy.
	if err := s.Corrupt(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(id); err == nil {
		t.Fatal("Get of memory-corrupted blob unexpectedly succeeded")
	}

	out, _, err := s.ScrubBlob(id)
	if err != nil {
		t.Fatal(err)
	}
	if out != ScrubRepairedMemory {
		t.Fatalf("outcome %v, want ScrubRepairedMemory", out)
	}
	got, err := s.Get(id)
	if err != nil {
		t.Fatalf("Get after memory repair: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("repaired blob does not round-trip")
	}
}

func TestScrubQuarantinesWhenAllCopiesBad(t *testing.T) {
	s, b := newBackedStore(t)
	id, err := s.Put([]byte("doomed-data-doomed-data"), None)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt memory AND the backing file.
	if err := s.Corrupt(id); err != nil {
		t.Fatal(err)
	}
	path := b.path(id)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-2] ^= 0x55
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	out, _, err := s.ScrubBlob(id)
	if err != nil {
		t.Fatal(err)
	}
	if out != ScrubQuarantined {
		t.Fatalf("outcome %v, want ScrubQuarantined", out)
	}
	// Quarantined blobs are never served.
	_, gerr := s.Get(id)
	if !IsQuarantined(gerr) {
		t.Fatalf("Get of quarantined blob: got %v, want QuarantinedError", gerr)
	}
	if !IsCorruption(gerr) {
		t.Fatalf("quarantine error should still classify as corruption: %v", gerr)
	}
	if got := s.Quarantined(); len(got) != 1 || got[0] != id {
		t.Fatalf("Quarantined() = %v, want [%d]", got, id)
	}
	// Re-scrubbing a quarantined blob is a no-op skip.
	if out, _, err := s.ScrubBlob(id); err != nil || out != ScrubSkipped {
		t.Fatalf("re-scrub: outcome %v err %v, want ScrubSkipped", out, err)
	}
}

func TestScrubMissingBackingFileRewritten(t *testing.T) {
	s, b := newBackedStore(t)
	id, err := s.Put([]byte("evaporated-file"), None)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(b.path(id)); err != nil {
		t.Fatal(err)
	}
	out, _, err := s.ScrubBlob(id)
	if err != nil {
		t.Fatal(err)
	}
	if out != ScrubRepairedBacking {
		t.Fatalf("outcome %v, want ScrubRepairedBacking", out)
	}
	if _, err := os.Stat(b.path(id)); err != nil {
		t.Fatalf("backing file not rewritten: %v", err)
	}
}

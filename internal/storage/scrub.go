package storage

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
)

// QuarantinedError reports a read refused because the blob was quarantined:
// the scrubber confirmed corruption on every available copy, so serving it
// would return wrong data. IsCorruption matches it (the cause is the
// underlying CorruptionError).
type QuarantinedError struct {
	Blob  BlobID
	Cause error
}

func (e *QuarantinedError) Error() string {
	return fmt.Sprintf("storage: blob %d is quarantined (corrupt at rest): %v", e.Blob, e.Cause)
}

func (e *QuarantinedError) Unwrap() error { return e.Cause }

// IsQuarantined reports whether err is (or wraps) a quarantine refusal.
func IsQuarantined(err error) bool {
	var qe *QuarantinedError
	return errors.As(err, &qe)
}

// Quarantine marks a blob as confirmed-corrupt: it is evicted from the
// buffer pool and every subsequent Get fails with a QuarantinedError
// instead of serving (or re-verifying) the damaged bytes.
func (s *Store) Quarantine(id BlobID, cause error) {
	if cause == nil {
		cause = &CorruptionError{Blob: id}
	}
	s.mu.Lock()
	if s.quarantined == nil {
		s.quarantined = make(map[BlobID]error)
	}
	if _, dup := s.quarantined[id]; !dup {
		s.quarantined[id] = cause
		mQuarantined.Inc()
	}
	if el, ok := s.cache[id]; ok {
		s.removeEntryLocked(el)
	}
	s.mu.Unlock()
}

// Quarantined returns the ids of quarantined blobs, ascending.
func (s *Store) Quarantined() []BlobID {
	s.mu.Lock()
	ids := make([]BlobID, 0, len(s.quarantined))
	for id := range s.quarantined {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// IDs returns every live blob id, ascending. The scrubber walks this
// snapshot; blobs deleted mid-walk are skipped individually.
func (s *Store) IDs() []BlobID {
	s.mu.Lock()
	ids := make([]BlobID, 0, len(s.blobs))
	for id := range s.blobs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ScrubOutcome classifies one blob's scrub result.
type ScrubOutcome int

// Scrub outcomes.
const (
	// ScrubOK: both the in-memory copy and the backing file (if any) verify.
	ScrubOK ScrubOutcome = iota
	// ScrubSkipped: the blob disappeared (deleted) or is already quarantined.
	ScrubSkipped
	// ScrubRepairedBacking: the backing file was corrupt or missing and was
	// rewritten from the verified in-memory copy.
	ScrubRepairedBacking
	// ScrubRepairedMemory: the in-memory copy was corrupt and was reloaded
	// from the verified backing file.
	ScrubRepairedMemory
	// ScrubQuarantined: every copy is corrupt; the blob is quarantined and
	// will never be served.
	ScrubQuarantined
)

func (o ScrubOutcome) String() string {
	switch o {
	case ScrubOK:
		return "ok"
	case ScrubSkipped:
		return "skipped"
	case ScrubRepairedBacking:
		return "repaired-backing"
	case ScrubRepairedMemory:
		return "repaired-memory"
	case ScrubQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// verifyAtRest checks one copy of a blob's at-rest bytes against its
// metadata: inflation (for archival blobs), length, and CRC.
func verifyAtRest(id BlobID, onDisk []byte, meta blobMeta) error {
	raw := onDisk
	if meta.comp == Archival {
		r := flate.NewReader(bytes.NewReader(onDisk))
		var err error
		raw, err = io.ReadAll(r)
		if err != nil {
			return &CorruptionError{Blob: id}
		}
		if err := r.Close(); err != nil {
			return &CorruptionError{Blob: id}
		}
	}
	if len(raw) != meta.rawLen || crc32.ChecksumIEEE(raw) != meta.checksum {
		return &CorruptionError{Blob: id}
	}
	return nil
}

// ScrubBlob verifies one blob's at-rest copies — the in-memory bytes and,
// when a disk backing is attached, the blob file — and repairs whichever
// side is damaged from the surviving good copy. Only when every copy is
// corrupt is the blob quarantined. Returns the outcome and the at-rest
// bytes examined (for the scrubber's pacing budget).
func (s *Store) ScrubBlob(id BlobID) (ScrubOutcome, int64, error) {
	s.mu.Lock()
	if _, q := s.quarantined[id]; q {
		s.mu.Unlock()
		return ScrubSkipped, 0, nil
	}
	mem, ok := s.blobs[id]
	meta := s.meta[id]
	s.mu.Unlock()
	if !ok {
		return ScrubSkipped, 0, nil
	}
	bytesExamined := int64(len(mem))
	memErr := verifyAtRest(id, mem, meta)

	b := s.backing.Load()
	if b == nil {
		if memErr != nil {
			s.Quarantine(id, memErr)
			return ScrubQuarantined, bytesExamined, nil
		}
		return ScrubOK, bytesExamined, nil
	}

	file, fileMeta, fileErr := b.readBlob(id)
	if fileErr == nil {
		bytesExamined += int64(len(file))
		if fileMeta.checksum != meta.checksum || fileMeta.comp != meta.comp {
			fileErr = &CorruptionError{Blob: id}
		} else {
			fileErr = verifyAtRest(id, file, fileMeta)
		}
	}

	switch {
	case memErr == nil && fileErr == nil:
		return ScrubOK, bytesExamined, nil

	case memErr == nil:
		// Backing file corrupt or missing: rewrite it from memory. Re-check
		// liveness afterwards so a concurrent Delete doesn't leave a
		// resurrected file behind.
		if err := b.write(id, mem, meta); err != nil {
			return ScrubOK, bytesExamined, fmt.Errorf("storage: scrub rewrite blob %d: %w", id, err)
		}
		s.mu.Lock()
		_, live := s.blobs[id]
		s.mu.Unlock()
		if !live {
			b.remove(id)
			return ScrubSkipped, bytesExamined, nil
		}
		mScrubRepairs.Inc()
		return ScrubRepairedBacking, bytesExamined, nil

	case fileErr == nil:
		// In-memory copy corrupt (e.g. a flipped DRAM/page byte), file good:
		// reload memory from the file.
		s.mu.Lock()
		if _, live := s.blobs[id]; live {
			s.blobs[id] = file
			s.meta[id] = fileMeta
			if el, okc := s.cache[id]; okc {
				s.removeEntryLocked(el)
			}
		}
		s.mu.Unlock()
		mScrubRepairs.Inc()
		return ScrubRepairedMemory, bytesExamined, nil

	default:
		// Both copies corrupt (or the file is unreadable and memory bad).
		cause := memErr
		if os.IsNotExist(fileErr) {
			cause = fmt.Errorf("%w (backing file also missing)", memErr)
		}
		s.Quarantine(id, cause)
		return ScrubQuarantined, bytesExamined, nil
	}
}

// WriteProbe checks whether durable blob writes would currently succeed:
// when a backing is attached, a real scratch file is written and fsynced in
// the blob directory.
func (s *Store) WriteProbe() error {
	b := s.backing.Load()
	if b == nil {
		return nil
	}
	return b.writeProbe()
}

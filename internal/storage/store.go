// Package storage is the engine's storage substrate: a blob store holding
// column segments, dictionaries, and delta-store pages, fronted by an LRU
// buffer pool with byte-level I/O accounting. It stands in for SQL Server's
// storage engine; experiments read its counters instead of wall-clock disk
// time, which keeps the paper's relative comparisons (eliminated vs scanned
// segments, archival vs normal tier) observable at laptop scale.
//
// The archival tier applies stdlib DEFLATE (LZ77+Huffman) over already
// columnstore-compressed bytes, standing in for Microsoft XPRESS — the same
// algorithm family with the same ratio-versus-CPU trade-off direction.
package storage

import (
	"bytes"
	"compress/flate"
	"container/list"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// BlobID identifies a blob within a Store.
type BlobID uint64

// Compression selects the at-rest representation of a blob.
type Compression uint8

// Blob compression tiers.
const (
	None     Compression = iota // stored as written
	Archival                    // DEFLATE-compressed at rest (COLUMNSTORE_ARCHIVE)
)

func (c Compression) String() string {
	if c == Archival {
		return "ARCHIVE"
	}
	return "NONE"
}

// IOStats aggregates storage-level counters. All fields are cumulative since
// the last ResetStats.
type IOStats struct {
	Reads            int64 // blob reads that missed the buffer pool ("disk" reads)
	Writes           int64 // blob writes
	BytesRead        int64 // at-rest bytes read from "disk"
	BytesWritten     int64 // at-rest bytes written
	CacheHits        int64
	CacheMisses      int64
	DecompressCalls  int64 // archival blobs inflated
	BytesDecompressd int64 // logical bytes produced by inflation
	Retries          int64 // read attempts repeated after a transient fault
	WriteRetries     int64 // write attempts repeated after a transient fault
	FaultsInjected   int64 // faults raised by the attached FaultInjector
}

type blobMeta struct {
	comp     Compression
	rawLen   int
	diskLen  int
	checksum uint32 // crc32 of the raw (uncompressed) bytes
}

// Store is an in-process blob store with a buffer pool. It is safe for
// concurrent use.
type Store struct {
	mu     sync.Mutex
	blobs  map[BlobID][]byte
	meta   map[BlobID]blobMeta
	nextID uint64

	// quarantined holds blobs the scrubber confirmed corrupt on every copy
	// (keyed to the corruption cause). They are never served; Get fails
	// with a QuarantinedError. Lazily allocated.
	quarantined map[BlobID]error

	// Buffer pool: LRU over decompressed blob bytes. With a shared budget
	// attached, capacity checks go through it instead of cacheCap, so every
	// store sharing the budget competes for one process-wide pool.
	cacheCap   int64
	cacheBytes int64
	cache      map[BlobID]*list.Element
	lru        *list.List // front = most recent; values are *cacheEntry
	budget     *Budget    // nil = private pool of cacheCap bytes

	// statsMu serializes Stats against ResetStats so a snapshot taken during
	// a reset never mixes pre- and post-reset counters. Hot-path increments
	// stay lock-free atomics.
	statsMu sync.Mutex
	stats   struct {
		reads, writes, bytesRead, bytesWritten atomic.Int64
		hits, misses, decompCalls, decompBytes atomic.Int64
		retries, writeRetries                  atomic.Int64
	}

	// Fault-tolerance knobs: an optional fault injector on the read/write
	// paths, and the retry policy for transient read failures.
	fault atomic.Pointer[FaultInjector]
	retry atomic.Pointer[RetryPolicy]

	// Optional disk backing: when attached, Put writes through to a blob
	// file and Delete removes it.
	backing atomic.Pointer[DiskBacking]
}

type cacheEntry struct {
	id       BlobID
	data     []byte
	budgeted bool // bytes reserved from the shared budget, not the private cap
}

// DefaultBufferPoolBytes is the default buffer pool capacity.
const DefaultBufferPoolBytes = 64 << 20

// NewStore creates a store with the given buffer pool capacity in bytes.
// A capacity of 0 disables caching (every read is a "disk" read).
func NewStore(bufferPoolBytes int64) *Store {
	return &Store{
		blobs:    make(map[BlobID][]byte),
		meta:     make(map[BlobID]blobMeta),
		cacheCap: bufferPoolBytes,
		cache:    make(map[BlobID]*list.Element),
		lru:      list.New(),
	}
}

// SetCacheBudget attaches a shared cache budget: the buffer pool's capacity
// checks go through the budget (shared with other stores) instead of the
// store's private cap. Attach before the store sees traffic; entries cached
// earlier keep their private accounting until evicted.
func (s *Store) SetCacheBudget(b *Budget) {
	s.mu.Lock()
	s.budget = b
	s.mu.Unlock()
}

// SetFaultInjector attaches (or, with nil, removes) a fault injector on the
// store's read and write paths. Safe to call concurrently with I/O.
func (s *Store) SetFaultInjector(f *FaultInjector) { s.fault.Store(f) }

// SetRetryPolicy overrides the retry policy for transient read failures.
func (s *Store) SetRetryPolicy(p RetryPolicy) { s.retry.Store(&p) }

func (s *Store) retryPolicy() RetryPolicy {
	if p := s.retry.Load(); p != nil {
		return *p
	}
	return DefaultRetryPolicy()
}

// Put stores data under a fresh BlobID at the given compression tier and
// returns the id. The input slice is not retained.
//
// Transient write faults are retried with the same bounded exponential
// backoff as Get: blob writes are idempotent up to id allocation (the id is
// assigned only after the fault window), so retrying inside Put is safe and
// spares every writer — tuple mover, bulk load, spill — its own retry loop.
// A fault that outlives the budget surfaces as a TransientError and the
// caller owns the durability decision (the mover re-queues its delta store;
// bulk loads fail the statement).
func (s *Store) Put(data []byte, comp Compression) (BlobID, error) {
	if f := s.fault.Load(); f != nil {
		policy := s.retryPolicy()
		attempts := max(policy.MaxAttempts, 1)
		for attempt := 0; ; attempt++ {
			err := f.beforeWrite()
			if err == nil {
				break
			}
			if !IsTransient(err) || attempt+1 >= attempts {
				return 0, err
			}
			s.stats.writeRetries.Add(1)
			mWriteRetries.Inc()
			time.Sleep(policy.backoff(attempt))
		}
	}
	sum := crc32.ChecksumIEEE(data)
	var onDisk []byte
	switch comp {
	case None:
		onDisk = append([]byte(nil), data...)
	case Archival:
		var buf bytes.Buffer
		w, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			return 0, fmt.Errorf("storage: init deflate: %w", err)
		}
		if _, err := w.Write(data); err != nil {
			return 0, fmt.Errorf("storage: deflate: %w", err)
		}
		if err := w.Close(); err != nil {
			return 0, fmt.Errorf("storage: deflate close: %w", err)
		}
		onDisk = buf.Bytes()
	default:
		return 0, fmt.Errorf("storage: unknown compression %d", comp)
	}

	meta := blobMeta{comp: comp, rawLen: len(data), diskLen: len(onDisk), checksum: sum}
	s.mu.Lock()
	s.nextID++
	id := BlobID(s.nextID)
	s.blobs[id] = onDisk
	s.meta[id] = meta
	s.mu.Unlock()

	if b := s.backing.Load(); b != nil {
		if err := b.write(id, onDisk, meta); err != nil {
			// Undo the in-memory insert: a blob that is not on disk must not
			// be visible, or recovery would diverge from the live store.
			s.mu.Lock()
			delete(s.blobs, id)
			delete(s.meta, id)
			s.mu.Unlock()
			return 0, err
		}
	}

	s.stats.writes.Add(1)
	s.stats.bytesWritten.Add(int64(len(onDisk)))
	mWrites.Inc()
	mWrittenBytes.Add(int64(len(onDisk)))
	return id, nil
}

// Get returns the raw (decompressed) bytes of a blob. The returned slice is
// shared with the buffer pool and must not be modified.
//
// Transient read faults (see FaultInjector) are retried with exponential
// backoff under the store's RetryPolicy. Checksum mismatches fail fast as
// CorruptionErrors naming the blob: re-reading cannot repair wrong at-rest
// bytes, so burning retry budget on them only delays the report.
func (s *Store) Get(id BlobID) ([]byte, error) {
	s.mu.Lock()
	if qerr, ok := s.quarantined[id]; ok {
		s.mu.Unlock()
		mQuarantineServes.Inc()
		return nil, &QuarantinedError{Blob: id, Cause: qerr}
	}
	if el, ok := s.cache[id]; ok {
		s.lru.MoveToFront(el)
		data := el.Value.(*cacheEntry).data
		s.mu.Unlock()
		s.stats.hits.Add(1)
		mCacheHits.Inc()
		return data, nil
	}
	onDisk, ok := s.blobs[id]
	meta := s.meta[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("storage: blob %d not found", id)
	}
	s.stats.misses.Add(1)
	mCacheMisses.Inc()

	policy := s.retryPolicy()
	attempts := max(policy.MaxAttempts, 1)
	for attempt := 0; ; attempt++ {
		raw, err := s.readOnce(id, onDisk, meta)
		if err == nil {
			s.cacheInsert(id, raw)
			return raw, nil
		}
		if !IsTransient(err) || attempt+1 >= attempts {
			return nil, err
		}
		s.stats.retries.Add(1)
		mRetries.Inc()
		time.Sleep(policy.backoff(attempt))
	}
}

// readOnce performs one "disk" read attempt: fault hooks, inflation, and
// checksum verification.
func (s *Store) readOnce(id BlobID, onDisk []byte, meta blobMeta) ([]byte, error) {
	f := s.fault.Load()
	if f != nil {
		if err := f.beforeRead(id); err != nil {
			return nil, err
		}
	}
	s.stats.reads.Add(1)
	s.stats.bytesRead.Add(int64(len(onDisk)))
	mReads.Inc()
	mReadBytes.Add(int64(len(onDisk)))

	var raw []byte
	switch meta.comp {
	case None:
		raw = onDisk
	case Archival:
		r := flate.NewReader(bytes.NewReader(onDisk))
		var err error
		raw, err = io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("storage: inflate blob %d: %w", id, err)
		}
		if err := r.Close(); err != nil {
			return nil, fmt.Errorf("storage: inflate close blob %d: %w", id, err)
		}
		s.stats.decompCalls.Add(1)
		s.stats.decompBytes.Add(int64(len(raw)))
	}
	if f != nil {
		raw = f.corruptRead(raw)
	}
	if crc32.ChecksumIEEE(raw) != meta.checksum {
		mCorruption.Inc()
		return nil, &CorruptionError{Blob: id}
	}
	return raw, nil
}

func (s *Store) cacheInsert(id BlobID, data []byte) {
	n := int64(len(data))
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cache[id]; ok {
		return
	}
	if s.budget != nil {
		if n > s.budget.Cap() {
			return
		}
		// Make room from our own LRU tail first; if our cache is already
		// empty the budget is held by other stores and this read stays
		// uncached (their entries age out under their own insert pressure).
		for !s.budget.TryReserve(n) {
			if !s.evictTailLocked() {
				return
			}
		}
	} else if s.cacheCap <= 0 || n > s.cacheCap {
		return
	}
	el := s.lru.PushFront(&cacheEntry{id: id, data: data, budgeted: s.budget != nil})
	s.cache[id] = el
	s.cacheBytes += n
	if s.budget == nil {
		for s.cacheBytes > s.cacheCap {
			if !s.evictTailLocked() {
				break
			}
		}
	}
}

// evictTailLocked drops the LRU tail entry, returning false when the cache
// is empty. Caller holds s.mu.
func (s *Store) evictTailLocked() bool {
	back := s.lru.Back()
	if back == nil {
		return false
	}
	s.removeEntryLocked(back)
	return true
}

// removeEntryLocked unlinks one cache entry and returns its bytes to
// whichever pool accounted them. Caller holds s.mu.
func (s *Store) removeEntryLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	s.lru.Remove(el)
	delete(s.cache, e.id)
	s.cacheBytes -= int64(len(e.data))
	if e.budgeted && s.budget != nil {
		s.budget.Release(int64(len(e.data)))
	}
}

// Delete removes a blob, evicts it from the buffer pool, and removes its
// backing file if a disk backing is attached.
func (s *Store) Delete(id BlobID) {
	s.mu.Lock()
	delete(s.blobs, id)
	delete(s.meta, id)
	if el, ok := s.cache[id]; ok {
		s.removeEntryLocked(el)
	}
	s.mu.Unlock()
	if b := s.backing.Load(); b != nil {
		b.remove(id)
	}
}

// SizeOf returns a blob's at-rest and raw sizes.
func (s *Store) SizeOf(id BlobID) (diskBytes, rawBytes int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.meta[id]
	if !ok {
		return 0, 0, fmt.Errorf("storage: blob %d not found", id)
	}
	return m.diskLen, m.rawLen, nil
}

// SizeOnDisk totals the at-rest bytes of all blobs.
func (s *Store) SizeOnDisk() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, m := range s.meta {
		total += int64(m.diskLen)
	}
	return total
}

// EvictAll empties the buffer pool (used by benchmarks to measure cold reads).
func (s *Store) EvictAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.evictTailLocked() {
	}
	s.cache = make(map[BlobID]*list.Element)
	s.lru.Init()
	s.cacheBytes = 0
}

// Corrupt flips a byte of the at-rest representation of a blob and evicts it
// from the cache. Tests use it to exercise checksum verification.
func (s *Store) Corrupt(id BlobID) error {
	s.mu.Lock()
	b, ok := s.blobs[id]
	if !ok || len(b) == 0 {
		s.mu.Unlock()
		return fmt.Errorf("storage: blob %d not found or empty", id)
	}
	b[len(b)/2] ^= 0xFF
	s.mu.Unlock()
	s.EvictAll()
	return nil
}

// Stats returns a snapshot of the store's I/O counters. The snapshot is
// consistent with respect to ResetStats: a concurrent reset either precedes
// the whole snapshot or follows it, never splits it.
func (s *Store) Stats() IOStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	st := IOStats{
		Reads:            s.stats.reads.Load(),
		Writes:           s.stats.writes.Load(),
		BytesRead:        s.stats.bytesRead.Load(),
		BytesWritten:     s.stats.bytesWritten.Load(),
		CacheHits:        s.stats.hits.Load(),
		CacheMisses:      s.stats.misses.Load(),
		DecompressCalls:  s.stats.decompCalls.Load(),
		BytesDecompressd: s.stats.decompBytes.Load(),
		Retries:          s.stats.retries.Load(),
		WriteRetries:     s.stats.writeRetries.Load(),
	}
	if f := s.fault.Load(); f != nil {
		st.FaultsInjected = f.Injected()
	}
	return st
}

// ResetStats zeroes the I/O counters. It holds the same lock as Stats so a
// concurrent snapshot never observes some counters reset and others not.
func (s *Store) ResetStats() {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	s.stats.reads.Store(0)
	s.stats.writes.Store(0)
	s.stats.bytesRead.Store(0)
	s.stats.bytesWritten.Store(0)
	s.stats.hits.Store(0)
	s.stats.misses.Store(0)
	s.stats.decompCalls.Store(0)
	s.stats.decompBytes.Store(0)
	s.stats.retries.Store(0)
	s.stats.writeRetries.Store(0)
}

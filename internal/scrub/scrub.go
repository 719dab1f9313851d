// Package scrub is the background integrity scrubber: a paced worker that
// walks every blob's at-rest copies (in-memory and backing file) and the
// closed write-ahead-log segments, verifying checksums off the query path.
// Cold blobs are otherwise checksum-verified only when a query happens to
// read them, so silent bit rot can sit undetected for the exact data a
// mission-critical scan will eventually need; the scrubber finds it first,
// repairs from whichever copy survives, and quarantines (never serves) what
// cannot be repaired. Pacing is byte-budgeted, following the paper's
// discipline that background maintenance must not starve foreground load.
package scrub

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"apollo/internal/catalog"
	"apollo/internal/metrics"
	"apollo/internal/sched"
	"apollo/internal/storage"
	"apollo/internal/table"
	"apollo/internal/wal"
)

var (
	mPasses = metrics.Default.Counter("apollo_scrub_passes_total",
		"integrity-scrub passes completed")
	mBlobs = metrics.Default.Counter("apollo_scrub_blobs_total",
		"blobs checksum-verified by the scrubber")
	mBytes = metrics.Default.Counter("apollo_scrub_bytes_total",
		"at-rest bytes checksum-verified by the scrubber")
	mRepaired = metrics.Default.Counter("apollo_scrub_repaired_total",
		"blobs repaired from a surviving good copy")
	mQuarantined = metrics.Default.Counter("apollo_scrub_quarantined_total",
		"blobs quarantined (corrupt on every copy)")
	mWALCorrupt = metrics.Default.Counter("apollo_scrub_wal_corruptions_total",
		"closed WAL segments found corrupt by the scrubber")
	mPaceSleeps = metrics.Default.Counter("apollo_scrub_pace_sleeps_total",
		"pacing sleeps taken to keep the scrubber under its byte budget")
)

// DefaultBytesPerSec is the pacing budget when none is configured: generous
// for an in-process store but still bounded, so a huge cold tier cannot
// monopolize memory bandwidth.
const DefaultBytesPerSec = 256 << 20

// Report summarizes one scrub pass.
type Report struct {
	Started  time.Time
	Duration time.Duration

	Blobs           int64 // blobs examined
	Bytes           int64 // at-rest bytes examined (both copies)
	RepairedBacking int64 // backing files rewritten from memory
	RepairedMemory  int64 // in-memory copies reloaded from the backing file
	Quarantined     int64 // blobs corrupt on every copy, now quarantined
	Skipped         int64 // deleted or already-quarantined blobs passed over

	WALSegments   int   // closed WAL segments verified
	WALRecords    int64 // records inside them
	WALCorruption error // first corruption found in a closed segment (nil if none)
	// CheckpointTriggered reports that WAL corruption was self-healed by
	// forcing a checkpoint (the image supersedes the damaged history, which
	// the next truncation discards).
	CheckpointTriggered bool

	Errors []string // non-fatal per-blob errors (capped)
}

// Scrubber walks a store (and its owning catalog, for per-table attribution
// and WAL coverage) verifying integrity. Create with New; run passes
// manually with RunPass or in the background as a scheduler Job.
type Scrubber struct {
	store *storage.Store
	cat   *catalog.Catalog
	bps   int64 // default pacing budget

	// walDir and walBelow scope WAL verification: segments with sequence
	// below walBelow() in walDir are closed and immutable. Empty walDir
	// (in-memory DB) skips WAL verification.
	walDir   string
	walBelow func() uint64
	// checkpoint, when set, is invoked to self-heal after WAL corruption:
	// checkpointing rotates the log and truncates the damaged history away.
	checkpoint func() error

	mu     sync.Mutex
	last   *Report
	passes int64
}

// New builds a scrubber. cat may be nil (no per-table attribution); walDir
// may be "" (no WAL verification); checkpoint may be nil (report only).
// bytesPerSec caps verification throughput (<= 0: DefaultBytesPerSec).
func New(store *storage.Store, cat *catalog.Catalog, walDir string, walBelow func() uint64, checkpoint func() error, bytesPerSec int64) *Scrubber {
	if bytesPerSec <= 0 {
		bytesPerSec = DefaultBytesPerSec
	}
	return &Scrubber{
		store:      store,
		cat:        cat,
		bps:        bytesPerSec,
		walDir:     walDir,
		walBelow:   walBelow,
		checkpoint: checkpoint,
	}
}

// blobOwners maps each live blob id to the tables referencing it, so a
// quarantine can degrade the right tables' Health.
func (s *Scrubber) blobOwners() map[uint64][]*table.Table {
	if s.cat == nil {
		return nil
	}
	owners := make(map[uint64][]*table.Table)
	for _, name := range s.cat.List() {
		t, err := s.cat.Get(name)
		if err != nil {
			continue
		}
		keep := make(map[uint64]bool)
		t.LiveBlobs(keep)
		for id := range keep {
			owners[id] = append(owners[id], t)
		}
	}
	return owners
}

// RunPass walks every blob and the closed WAL segments once, pacing by the
// configured byte budget. Concurrent queries keep running; repairs and
// quarantines are applied through the store's own synchronization.
func (s *Scrubber) RunPass(ctx context.Context) (*Report, error) {
	return s.RunPassPaced(ctx, s.bps)
}

// RunPassPaced is RunPass at an explicit byte budget for this pass only.
// bytesPerSec <= 0 disables pacing entirely (benchmarks measuring raw
// verification throughput; operator-forced full-speed passes).
func (s *Scrubber) RunPassPaced(ctx context.Context, bytesPerSec int64) (*Report, error) {
	rep := &Report{Started: time.Now()}
	owners := s.blobOwners()
	start := time.Now()
	bps := bytesPerSec

	for _, id := range s.store.IDs() {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		out, n, err := s.store.ScrubBlob(id)
		rep.Bytes += n
		mBytes.Add(n)
		switch out {
		case storage.ScrubSkipped:
			rep.Skipped++
		default:
			rep.Blobs++
			mBlobs.Inc()
		}
		switch out {
		case storage.ScrubRepairedBacking:
			rep.RepairedBacking++
			mRepaired.Inc()
		case storage.ScrubRepairedMemory:
			rep.RepairedMemory++
			mRepaired.Inc()
		case storage.ScrubQuarantined:
			rep.Quarantined++
			mQuarantined.Inc()
			for _, t := range owners[uint64(id)] {
				t.NoteQuarantine(uint64(id), fmt.Errorf("scrub: blob %d corrupt on every copy", id))
			}
		}
		if err != nil && len(rep.Errors) < 16 {
			rep.Errors = append(rep.Errors, err.Error())
		}
		// Pacing: sleep whenever verification runs ahead of the byte budget.
		if bps <= 0 {
			continue
		}
		if ahead := time.Duration(float64(rep.Bytes)/float64(bps)*float64(time.Second)) - time.Since(start); ahead > time.Millisecond {
			mPaceSleeps.Inc()
			select {
			case <-ctx.Done():
				return rep, ctx.Err()
			case <-time.After(min(ahead, 50*time.Millisecond)):
			}
		}
	}

	if s.walDir != "" && s.walBelow != nil {
		segs, recs, err := wal.VerifySegments(s.walDir, s.walBelow())
		rep.WALSegments = segs
		rep.WALRecords = recs
		if err != nil && errors.Is(err, wal.ErrCorrupt) {
			rep.WALCorruption = err
			mWALCorrupt.Inc()
			if s.checkpoint != nil {
				// Self-heal: a checkpoint snapshots current state (which no
				// longer needs the damaged history) and truncates the log
				// below its rotation point, discarding the corrupt segment.
				if cerr := s.checkpoint(); cerr == nil {
					rep.CheckpointTriggered = true
				} else if len(rep.Errors) < 16 {
					rep.Errors = append(rep.Errors, fmt.Sprintf("self-heal checkpoint: %v", cerr))
				}
			}
		} else if err != nil && len(rep.Errors) < 16 {
			rep.Errors = append(rep.Errors, err.Error())
		}
	}

	rep.Duration = time.Since(rep.Started)
	mPasses.Inc()
	s.mu.Lock()
	s.last = rep
	s.passes++
	s.mu.Unlock()
	return rep, nil
}

// Last returns the most recent pass report (nil if none) and the lifetime
// pass count.
func (s *Scrubber) Last() (*Report, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last, s.passes
}

// Job returns the scrubber as a scheduler job: one RunPass per interval.
func (s *Scrubber) Job(interval time.Duration) *sched.Job {
	return &sched.Job{
		Name: "scrub",
		Due:  func(_, last time.Time, _ bool) time.Time { return last.Add(interval) },
		Run:  func(ctx context.Context) { s.RunPass(ctx) }, //nolint:errcheck — pass errors land in the report
	}
}

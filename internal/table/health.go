package table

import (
	"sync"
	"time"
)

// Tuple-mover retry backoff bounds. After a MoveOnce failure the background
// mover waits the current backoff before retrying, doubling up to the cap;
// one success resets it. The base is small because most failures are
// transient storage hiccups that clear immediately.
const (
	moverBaseBackoff = 5 * time.Millisecond
	moverMaxBackoff  = time.Second
)

// Health is a point-in-time snapshot of a table's tuple-mover health,
// exposed through Table.Health for monitoring and tests. A table with
// ConsecutiveFailures > 0 has closed delta stores it cannot currently
// compress; the mover keeps retrying with exponential backoff and the rows
// stay queryable from the delta store in the meantime, so the condition is
// degraded, not lossy.
type Health struct {
	MoverRunning        bool          // a tuple-mover job is registered with a scheduler
	Moves               int64         // delta stores successfully compressed
	Failures            int64         // total MoveOnce errors observed
	ConsecutiveFailures int           // failures since the last success
	LastError           error         // most recent MoveOnce error (nil if none)
	LastErrorTime       time.Time     // when LastError occurred
	Backoff             time.Duration // current retry backoff (0 when healthy)

	// Integrity-scrub degradation: blobs belonging to this table that the
	// scrubber confirmed corrupt on every copy and quarantined. Queries
	// touching a quarantined blob fail with a typed quarantine error rather
	// than serving wrong bytes; the rest of the table keeps serving.
	QuarantinedBlobs   int
	LastQuarantine     error // most recent quarantine cause (nil if none)
	LastQuarantineTime time.Time
}

// moverHealth accumulates MoveOnce outcomes. Every MoveOnce call reports
// here — including foreground MoveAll/FlushOpen callers — so Health reflects
// the table's compression pipeline no matter who drives it.
type moverHealth struct {
	mu          sync.Mutex
	moves       int64
	failures    int64
	consecutive int
	lastErr     error
	lastErrTime time.Time
	backoff     time.Duration

	quarantined  map[uint64]struct{} // blob ids quarantined by the scrubber
	lastQuar     error
	lastQuarTime time.Time

	// obs, when set, sees every MoveOnce failure. The DB wires it to the
	// degrade state so a mover hitting ENOSPC or a poisoned WAL flips the
	// DB read-only / fail-stopped even though no session is on the path.
	obs func(error)
}

func (h *moverHealth) recordSuccess() {
	h.mu.Lock()
	h.moves++
	h.consecutive = 0
	h.backoff = 0
	h.mu.Unlock()
	mMoverMoves.Inc()
	mMoverBackoff.Set(0)
	mMoverConsecFailures.Set(0)
}

// recordFailure notes one MoveOnce error and doubles the retry backoff.
func (h *moverHealth) recordFailure(err error) {
	h.mu.Lock()
	h.failures++
	h.consecutive++
	h.lastErr = err
	h.lastErrTime = time.Now()
	switch {
	case h.backoff == 0:
		h.backoff = moverBaseBackoff
	case h.backoff < moverMaxBackoff:
		h.backoff *= 2
		if h.backoff > moverMaxBackoff {
			h.backoff = moverMaxBackoff
		}
	}
	d := h.backoff
	consec := h.consecutive
	obs := h.obs
	h.mu.Unlock()
	mMoverFailures.Inc()
	mMoverBackoff.Set(d.Seconds())
	mMoverConsecFailures.Set(float64(consec))
	if obs != nil {
		obs(err)
	}
}

func (h *moverHealth) snapshot(running bool) Health {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Health{
		MoverRunning:        running,
		Moves:               h.moves,
		Failures:            h.failures,
		ConsecutiveFailures: h.consecutive,
		LastError:           h.lastErr,
		LastErrorTime:       h.lastErrTime,
		Backoff:             h.backoff,
		QuarantinedBlobs:    len(h.quarantined),
		LastQuarantine:      h.lastQuar,
		LastQuarantineTime:  h.lastQuarTime,
	}
}

// Health returns a snapshot of the table's tuple-mover health.
func (t *Table) Health() Health {
	return t.health.snapshot(t.mover.Load().Scheduled())
}

// SetFailureObserver installs fn to see every MoveOnce failure (called
// outside the health lock). The DB routes these into its degrade state.
func (t *Table) SetFailureObserver(fn func(error)) {
	t.health.mu.Lock()
	t.health.obs = fn
	t.health.mu.Unlock()
}

// NoteQuarantine records that one of this table's blobs was quarantined by
// the integrity scrubber. Idempotent per blob id.
func (t *Table) NoteQuarantine(blob uint64, cause error) {
	h := &t.health
	h.mu.Lock()
	if h.quarantined == nil {
		h.quarantined = make(map[uint64]struct{})
	}
	h.quarantined[blob] = struct{}{}
	h.lastQuar = cause
	h.lastQuarTime = time.Now()
	h.mu.Unlock()
}

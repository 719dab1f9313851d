// Package degrade tracks a database's write-availability state through
// storage failures. Three modes form a one-way severity ladder with a single
// recoverable edge:
//
//	Healthy ──ENOSPC──▶ ReadOnly ──fsync failure──▶ Poisoned
//	   ▲                   │
//	   └──── auto-probe ────┘
//
// ReadOnly (disk full) keeps queries serving while DML, COPY, and
// checkpoints are refused with a typed ErrReadOnly; a background probe
// reclaims writability once space returns. Poisoned (a failed fsync
// anywhere on the durability path) is permanent until restart: a retried
// fsync can falsely succeed after the kernel drops dirty pages, so no
// commit may ever be acknowledged again (fsyncgate fail-stop).
package degrade

import (
	"errors"
	"fmt"
	"sync"
	"syscall"
	"time"

	"apollo/internal/metrics"
	"apollo/internal/wal"
)

// Mode is the database's write-availability state.
type Mode int

// Modes, in increasing severity.
const (
	Healthy Mode = iota
	ReadOnly
	Poisoned
)

func (m Mode) String() string {
	switch m {
	case Healthy:
		return "healthy"
	case ReadOnly:
		return "read_only"
	case Poisoned:
		return "poisoned"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ErrReadOnly is matched (via errors.Is) by the error every write receives
// while the database is degraded to read-only by disk exhaustion. Reads
// keep working; writes succeed again once the auto-probe sees space return.
var ErrReadOnly = errors.New("degrade: database is read-only (disk full)")

// ReadOnlyError carries the ENOSPC failure that flipped the database
// read-only and when it happened.
type ReadOnlyError struct {
	Cause error
	Since time.Time
}

func (e *ReadOnlyError) Error() string {
	return fmt.Sprintf("degrade: database is read-only (disk full since %s): %v",
		e.Since.UTC().Format(time.RFC3339), e.Cause)
}

func (e *ReadOnlyError) Is(target error) bool { return target == ErrReadOnly }

func (e *ReadOnlyError) Unwrap() error { return e.Cause }

// IsNoSpace reports whether err was caused by disk exhaustion (real or
// injected; both wrap syscall.ENOSPC).
func IsNoSpace(err error) bool { return errors.Is(err, syscall.ENOSPC) }

var (
	mMode = metrics.Default.Gauge("apollo_degrade_mode",
		"database write-availability: 0 healthy, 1 read-only (disk full), 2 poisoned (fsync failure)")
	mReadOnlyEntered = metrics.Default.Counter("apollo_degrade_readonly_entered_total",
		"transitions into read-only mode on disk exhaustion")
	mRecovered = metrics.Default.Counter("apollo_degrade_recovered_total",
		"read-only periods ended by the write probe reclaiming space")
	mPoisonedC = metrics.Default.Counter("apollo_degrade_poisoned_total",
		"permanent fail-stop transitions after an fsync failure")
	mProbes = metrics.Default.Counter("apollo_degrade_probes_total",
		"write probes issued while read-only")
)

// Status is a snapshot of the degrade state.
type Status struct {
	Mode            Mode
	Cause           error     // failure that entered the current mode (nil when healthy)
	Since           time.Time // when the current mode was entered
	ReadOnlyEntered int64     // lifetime count of Healthy→ReadOnly transitions
	Recovered       int64     // lifetime count of ReadOnly→Healthy recoveries
}

// State is the write-availability state machine. The zero value is not
// usable; call New.
type State struct {
	mu       sync.Mutex
	mode     Mode
	cause    error
	since    time.Time
	entered  int64
	recov    int64
	probe    func() error
	interval time.Duration
	probing  bool // a probe goroutine is running
	closed   bool
	stop     chan struct{} // closed by Close to stop any probe goroutine
}

// New returns a healthy state with no probe configured.
func New() *State {
	return &State{stop: make(chan struct{})}
}

// SetProbe installs the writability probe used to leave read-only mode. fn
// should attempt a small real write+fsync (and consult any armed fault
// injection) and return nil when writes would succeed. interval <= 0
// defaults to 500ms.
func (s *State) SetProbe(fn func() error, interval time.Duration) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	s.mu.Lock()
	s.probe = fn
	s.interval = interval
	restart := s.mode == ReadOnly && !s.probing && !s.closed
	if restart {
		s.probing = true
	}
	s.mu.Unlock()
	if restart {
		go s.probeLoop()
	}
}

// Gate is the one write gate every write entry point passes through: it
// refuses fn while the database is degraded (a *ReadOnlyError while disk is
// full, the poison cause after fail-stop), runs it otherwise, and hands fn's
// error to Report. A nil State gates nothing.
func (s *State) Gate(fn func() error) error {
	if s == nil {
		return fn()
	}
	if err := s.check(); err != nil {
		return err
	}
	return s.Report(fn())
}

// Report is Gate's observe-only half, for a write that must run whatever
// the mode (COMMIT: a read-only transaction commits without touching the
// WAL, so it may finish while the database is degraded). It Observes err and
// returns the typed rejection the caller should surface: the write that
// *discovers* disk exhaustion gets the same ReadOnlyError every later gated
// write will see, instead of a raw ENOSPC clients would have to classify
// themselves. Errors that didn't degrade the state pass through unchanged.
// A nil State passes err through.
func (s *State) Report(err error) error {
	if s == nil || err == nil {
		return err
	}
	s.Observe(err)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mode == ReadOnly && IsNoSpace(err) {
		return &ReadOnlyError{Cause: err, Since: s.since}
	}
	return err
}

// check returns nil when writes are allowed, a *ReadOnlyError while
// degraded by disk exhaustion, and the poison cause after fail-stop.
func (s *State) check() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.mode {
	case ReadOnly:
		return &ReadOnlyError{Cause: s.cause, Since: s.since}
	case Poisoned:
		return s.cause
	default:
		return nil
	}
}

// Mode returns the current mode.
func (s *State) Mode() Mode {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mode
}

// Observe classifies a write-path error and transitions state: an fsync
// poison fail-stops, disk exhaustion enters read-only. Any other error
// (including nil) is a no-op — ordinary failures don't degrade the DB.
func (s *State) Observe(err error) {
	if err == nil {
		return
	}
	switch {
	case errors.Is(err, wal.ErrPoisoned):
		s.Poison(err)
	case IsNoSpace(err):
		s.EnterReadOnly(err)
	}
}

// Poison fail-stops the database permanently (until restart). Overrides
// read-only; the first poison cause sticks.
func (s *State) Poison(cause error) {
	s.mu.Lock()
	if s.mode == Poisoned {
		s.mu.Unlock()
		return
	}
	s.mode = Poisoned
	s.cause = cause
	s.since = time.Now()
	s.mu.Unlock()
	mPoisonedC.Inc()
	mMode.Set(float64(Poisoned))
}

// EnterReadOnly degrades the database to read-only on disk exhaustion and
// starts the recovery probe (if configured). No-op when already read-only
// or poisoned.
func (s *State) EnterReadOnly(cause error) {
	s.mu.Lock()
	if s.mode != Healthy {
		s.mu.Unlock()
		return
	}
	s.mode = ReadOnly
	s.cause = cause
	s.since = time.Now()
	s.entered++
	startProbe := s.probe != nil && !s.probing && !s.closed
	if startProbe {
		s.probing = true
	}
	s.mu.Unlock()
	mReadOnlyEntered.Inc()
	mMode.Set(float64(ReadOnly))
	if startProbe {
		go s.probeLoop()
	}
}

// probeLoop periodically retries the write probe while read-only and flips
// the state back to healthy on the first success. It exits when the state
// leaves ReadOnly (recovery, poison, or Close).
func (s *State) probeLoop() {
	s.mu.Lock()
	interval := s.interval
	s.mu.Unlock()
	t := time.NewTicker(interval)
	defer t.Stop()
	defer func() {
		s.mu.Lock()
		s.probing = false
		s.mu.Unlock()
	}()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.mu.Lock()
		if s.mode != ReadOnly || s.closed {
			s.mu.Unlock()
			return
		}
		probe := s.probe
		s.mu.Unlock()
		mProbes.Inc()
		if probe() != nil {
			continue // still failing; stay read-only
		}
		s.mu.Lock()
		if s.mode == ReadOnly {
			s.mode = Healthy
			s.cause = nil
			s.since = time.Now()
			s.recov++
			mRecovered.Inc()
			mMode.Set(float64(Healthy))
		}
		s.mu.Unlock()
		return
	}
}

// Snapshot returns the current status.
func (s *State) Snapshot() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{Mode: s.mode, Cause: s.cause, Since: s.since, ReadOnlyEntered: s.entered, Recovered: s.recov}
}

// Close stops the probe goroutine. The state itself stays readable.
func (s *State) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stop)
	}
	s.mu.Unlock()
}

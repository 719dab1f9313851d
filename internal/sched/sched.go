// Package sched runs a database's background work. One goroutine decides
// which jobs are due; each due job runs on a goroutine of its own and never
// twice at once, so an idle database costs one goroutine however many jobs
// it has. The clock is time.Now in production and a Manual clock in tests.
package sched

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Manual is a test clock that reads the Unix epoch until Advance moves it;
// a test then calls Scheduler.Settle to run what has fallen due.
type Manual struct{ ns atomic.Int64 }

// Now returns the clock's reading; pass it to New.
func (m *Manual) Now() time.Time { return time.Unix(0, m.ns.Load()) }

// Advance moves the clock forward by d.
func (m *Manual) Advance(d time.Duration) { m.ns.Add(int64(d)) }

// A Job is one kind of background work, registered with Scheduler.Add.
type Job struct {
	Name string
	// Due returns when the job next wants to run: a time at or before now
	// runs it, the zero Time waits for a Kick. last is when its previous run
	// ended (when it was added, before the first run); kicked reports a Kick
	// since the previous run started. Due is called with the scheduler
	// locked, never while the job runs: it must be quick and must not call
	// the scheduler.
	Due func(now, last time.Time, kicked bool) time.Time
	// Run does the work. Its context is cancelled by Remove and Stop.
	Run func(ctx context.Context)

	s atomic.Pointer[Scheduler] // while added
	// Guarded by the scheduler's mu.
	last   time.Time
	kicked bool
	cancel context.CancelFunc // non-nil while a run is in flight
}

// Kick makes the scheduler call j's Due now, with kicked set. It does
// nothing unless j is added; j may be nil.
func (j *Job) Kick() {
	if s := j.scheduler(); s != nil {
		s.mu.Lock()
		j.kicked = true
		s.mu.Unlock()
		s.poke()
	}
}

// Scheduled reports whether j is added to a running scheduler; j may be nil.
func (j *Job) Scheduled() bool { return j.scheduler() != nil }

// Remove unregisters j, cancels its run in flight and waits for that run to
// return. It does nothing unless j is added; j may be nil.
func (j *Job) Remove() {
	if s := j.scheduler(); s != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		if j.s.CompareAndSwap(s, nil) {
			s.jobs = slices.DeleteFunc(s.jobs, func(x *Job) bool { return x == j })
			for j.cancel != nil {
				j.cancel()
				s.cond.Wait()
			}
		}
	}
}

func (j *Job) scheduler() *Scheduler {
	if j == nil {
		return nil
	}
	return j.s.Load()
}

// Scheduler owns a set of jobs and the goroutine that starts them when due.
type Scheduler struct {
	now  func() time.Time
	wake chan struct{}
	done chan struct{}

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when a run ends
	jobs    []*Job
	stopped bool
}

// New starts a scheduler that judges what is due by now (it sleeps on real
// timers, which a Manual clock only makes wake early or late). Stop ends it.
func New(now func() time.Time) *Scheduler {
	s := &Scheduler{now: now, wake: make(chan struct{}, 1), done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.loop()
	return s
}

// Now reads the scheduler's clock, for callers that stamp times its jobs
// compare against.
func (s *Scheduler) Now() time.Time { return s.now() }

// Add registers j; its first interval counts from now. Add does nothing
// after Stop.
func (s *Scheduler) Add(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.stopped {
		j.last = s.now()
		j.s.Store(s)
		s.jobs = append(s.jobs, j)
		s.poke()
	}
}

// Stop removes every job, waiting for the runs in flight to return, and
// ends the scheduler goroutine. Stop is idempotent.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.stopped = true
	jobs := slices.Clone(s.jobs) // Remove edits s.jobs in place
	s.mu.Unlock()
	for _, j := range jobs {
		j.Remove()
	}
	s.poke()
	<-s.done
}

// Settle starts every job due now, and what falls due as runs end, and
// returns once none is running. Tests call it after moving a Manual clock.
func (s *Scheduler) Settle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, running := s.pass(); running; _, running = s.pass() {
		s.cond.Wait()
	}
}

// poke wakes the scheduler goroutine for a new pass.
func (s *Scheduler) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// loop is the scheduler goroutine: it passes over the jobs, then sleeps
// until the earliest future due time or a poke.
func (s *Scheduler) loop() {
	defer close(s.done)
	s.mu.Lock()
	for !s.stopped {
		next, _ := s.pass()
		s.mu.Unlock()
		var timer <-chan time.Time
		if !next.IsZero() {
			timer = time.After(next.Sub(s.now()))
		}
		select {
		case <-s.wake:
		case <-timer:
		}
		s.mu.Lock()
	}
	s.mu.Unlock()
}

// pass starts every idle job that is due. It returns the earliest future
// due time (zero if none) and whether any job is running. Called with s.mu
// held.
func (s *Scheduler) pass() (next time.Time, running bool) {
	now := s.now()
	for _, j := range s.jobs {
		if j.cancel == nil {
			switch at := j.Due(now, j.last, j.kicked); {
			case at.IsZero():
			case !at.After(now):
				s.start(j)
			case next.IsZero() || at.Before(next):
				next = at
			}
		}
		running = running || j.cancel != nil
	}
	return next, running
}

// start runs j on a goroutine of its own. Called with s.mu held.
func (s *Scheduler) start(j *Job) {
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel, j.kicked = cancel, false
	go func() {
		j.Run(ctx)
		cancel()
		s.mu.Lock()
		j.cancel, j.last = nil, s.now()
		s.cond.Broadcast()
		s.poke()
		s.mu.Unlock()
	}()
}

package sched

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newManual(t *testing.T) (*Manual, *Scheduler) {
	t.Helper()
	clk := new(Manual)
	s := New(clk.Now)
	t.Cleanup(s.Stop)
	return clk, s
}

// every returns a Due that wants a run d after the previous one, or at once
// when kicked.
func every(d time.Duration) func(now, last time.Time, kicked bool) time.Time {
	return func(now, last time.Time, kicked bool) time.Time {
		if kicked {
			return now
		}
		return last.Add(d)
	}
}

// Each job runs once its due time has come and not before, so jobs run in
// the order they fall due.
func TestDueOrder(t *testing.T) {
	clk, s := newManual(t)
	var mu sync.Mutex
	var order []string
	for _, j := range []struct {
		name string
		d    time.Duration
	}{{"c", 5 * time.Second}, {"a", 2 * time.Second}, {"b", 3 * time.Second}} {
		s.Add(&Job{Name: j.name, Due: every(j.d), Run: func(context.Context) {
			mu.Lock()
			order = append(order, j.name)
			mu.Unlock()
		}})
	}
	s.Settle()
	for _, want := range []string{"[]", "[]", "[a]", "[a b]", "[a b a]", "[a b a c]"} {
		mu.Lock()
		got := fmt.Sprint(order)
		mu.Unlock()
		if got != want {
			t.Fatalf("at %v: ran %s, want %s", clk.Now().Sub(time.Unix(0, 0)), got, want)
		}
		clk.Advance(time.Second)
		s.Settle()
	}
}

// A zero due time waits for a kick; a kick that lands while the job runs
// gives exactly one more run after it, never an overlapping one.
func TestKickWhileRunning(t *testing.T) {
	_, s := newManual(t)
	started := make(chan struct{})
	release := make(chan struct{})
	var runs, active, overlap atomic.Int32
	j := &Job{
		Name: "kicked",
		Due: func(now, _ time.Time, kicked bool) time.Time {
			if kicked {
				return now
			}
			return time.Time{}
		},
		Run: func(context.Context) {
			if active.Add(1) > 1 {
				overlap.Add(1)
			}
			if runs.Add(1) == 1 {
				close(started)
				<-release
			}
			active.Add(-1)
		},
	}
	j.Kick() // not added yet: nothing happens
	s.Add(j)
	s.Settle()
	if n := runs.Load(); n != 0 {
		t.Fatalf("%d runs without a kick", n)
	}
	j.Kick()
	<-started
	j.Kick()
	j.Kick()
	close(release)
	s.Settle()
	if n := runs.Load(); n != 2 {
		t.Fatalf("runs = %d, want 2 (one for the kicks during the first)", n)
	}
	if n := overlap.Load(); n != 0 {
		t.Fatalf("%d overlapping runs", n)
	}
}

// A job that is due on every pass still never runs twice at once.
func TestNoOverlappingRuns(t *testing.T) {
	s := New(time.Now)
	var active, overlap, runs atomic.Int32
	done := make(chan struct{})
	s.Add(&Job{
		Name: "busy",
		Due:  func(now, _ time.Time, _ bool) time.Time { return now },
		Run: func(context.Context) {
			if active.Add(1) > 1 {
				overlap.Add(1)
			}
			if runs.Add(1) == 50 {
				close(done)
			}
			active.Add(-1)
		},
	})
	<-done
	s.Stop()
	if n := overlap.Load(); n != 0 {
		t.Fatalf("%d overlapping runs", n)
	}
}

// Stop and Remove cancel the run in flight and return only once it has
// returned; nothing runs afterwards.
func TestStopAndRemoveWaitForRuns(t *testing.T) {
	for _, how := range []string{"stop", "remove"} {
		t.Run(how, func(t *testing.T) {
			clk, s := newManual(t)
			started := make(chan struct{})
			var finished, runs atomic.Int32
			j := &Job{Name: "long", Due: every(time.Second), Run: func(ctx context.Context) {
				if runs.Add(1) == 1 {
					close(started)
				}
				<-ctx.Done()
				finished.Add(1)
			}}
			s.Add(j)
			if !j.Scheduled() {
				t.Fatal("added job not scheduled")
			}
			j.Kick()
			<-started
			if how == "stop" {
				s.Stop()
				s.Stop() // idempotent
			} else {
				j.Remove()
				j.Remove() // no longer added: no-op
			}
			if finished.Load() != 1 {
				t.Fatalf("%s returned before the run did", how)
			}
			if j.Scheduled() {
				t.Fatalf("job still scheduled after %s", how)
			}
			j.Kick()
			clk.Advance(time.Hour)
			s.Settle()
			if n := runs.Load(); n != 1 {
				t.Fatalf("runs = %d after %s, want 1", n, how)
			}
		})
	}
}

// Stop waits for the runs of every job in flight, not only the first's.
func TestStopWaitsForEveryRun(t *testing.T) {
	s := New(new(Manual).Now)
	const n = 3
	var started sync.WaitGroup
	var finished atomic.Int32
	started.Add(n)
	for i := 0; i < n; i++ {
		j := &Job{Name: fmt.Sprint("long ", i), Due: every(time.Hour), Run: func(ctx context.Context) {
			started.Done()
			<-ctx.Done()
			finished.Add(1)
		}}
		s.Add(j)
		j.Kick()
	}
	started.Wait()
	s.Stop()
	if got := finished.Load(); got != n {
		t.Fatalf("Stop returned with %d of %d runs finished", got, n)
	}
}

// The manual clock moves only on Advance, and the scheduler reads it.
func TestManualClock(t *testing.T) {
	clk, s := newManual(t)
	if !clk.Now().Equal(time.Unix(0, 0)) {
		t.Fatalf("zero clock reads %v", clk.Now())
	}
	clk.Advance(time.Second)
	if !clk.Now().Equal(time.Unix(1, 0)) {
		t.Fatalf("clock reads %v after advancing 1s from the epoch", clk.Now())
	}
	if !s.Now().Equal(clk.Now()) {
		t.Fatalf("scheduler reads %v, its clock %v", s.Now(), clk.Now())
	}
}

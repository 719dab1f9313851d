package degrade

import (
	"errors"
	"fmt"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"apollo/internal/sched"
	"apollo/internal/wal"
)

func TestHealthyAllowsWrites(t *testing.T) {
	s := new(State)
	if err := s.check(); err != nil {
		t.Fatalf("healthy check: %v", err)
	}
	if s.Mode() != Healthy {
		t.Fatalf("mode %v, want Healthy", s.Mode())
	}
}

// probeSched runs s's write-probe every interval on a manual clock.
func probeSched(t *testing.T, s *State, probe func() error, interval time.Duration) (*sched.Manual, *sched.Scheduler) {
	t.Helper()
	clk := new(sched.Manual)
	sc := sched.New(clk.Now)
	t.Cleanup(sc.Stop)
	sc.Add(s.ProbeJob(probe, interval))
	sc.Settle()
	return clk, sc
}

func TestENOSPCEntersReadOnlyAndProbeRecovers(t *testing.T) {
	s := new(State)
	var full atomic.Bool
	var probes atomic.Int64
	full.Store(true)
	clk, sc := probeSched(t, s, func() error {
		probes.Add(1)
		if full.Load() {
			return fmt.Errorf("probe: %w", syscall.ENOSPC)
		}
		return nil
	}, time.Second)

	// Healthy: the probe never runs, however much time passes.
	clk.Advance(time.Hour)
	sc.Settle()
	if n := probes.Load(); n != 0 {
		t.Fatalf("%d probes while healthy", n)
	}

	s.Observe(fmt.Errorf("append: %w", syscall.ENOSPC))
	err := s.check()
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("check while full: got %v, want ErrReadOnly", err)
	}
	var roe *ReadOnlyError
	if !errors.As(err, &roe) {
		t.Fatalf("check error %v is not a *ReadOnlyError", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("ReadOnlyError does not unwrap to ENOSPC: %v", err)
	}

	// The first probe comes one interval after the degrade, the next one
	// interval after that; while they fail the state stays read-only.
	sc.Settle()
	clk.Advance(time.Second - time.Millisecond)
	sc.Settle()
	if n := probes.Load(); n != 0 {
		t.Fatalf("%d probes before one interval passed", n)
	}
	for want := int64(1); want <= 2; want++ {
		clk.Advance(time.Second)
		sc.Settle()
		if n := probes.Load(); n != want {
			t.Fatalf("probes = %d, want %d", n, want)
		}
	}
	if s.Mode() != ReadOnly {
		t.Fatalf("mode %v while probe failing, want ReadOnly", s.Mode())
	}

	// Free space; the next probe flips it back, and probing stops.
	full.Store(false)
	clk.Advance(time.Second)
	sc.Settle()
	if s.Mode() != Healthy {
		t.Fatal("state did not recover after probe success")
	}
	if err := s.check(); err != nil {
		t.Fatalf("check after recovery: %v", err)
	}
	st := s.Snapshot()
	if st.ReadOnlyEntered != 1 || st.Recovered != 1 {
		t.Fatalf("transition counts entered=%d recovered=%d, want 1/1", st.ReadOnlyEntered, st.Recovered)
	}
	clk.Advance(time.Hour)
	sc.Settle()
	if n := probes.Load(); n != 3 {
		t.Fatalf("probes = %d after recovery, want 3", n)
	}
}

func TestPoisonIsPermanentAndOverridesReadOnly(t *testing.T) {
	s := new(State)
	clk, sc := probeSched(t, s, func() error { return nil }, time.Millisecond)

	s.EnterReadOnly(fmt.Errorf("blob put: %w", syscall.ENOSPC))
	cause := &wal.PoisonedError{Cause: errors.New("fsync EIO")}
	s.Observe(cause)
	if s.Mode() != Poisoned {
		t.Fatalf("mode %v after poison, want Poisoned", s.Mode())
	}
	err := s.check()
	if !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("check after poison: got %v, want ErrPoisoned", err)
	}
	// The always-succeeding probe must NOT recover a poisoned state.
	clk.Advance(time.Second)
	sc.Settle()
	if s.Mode() != Poisoned {
		t.Fatalf("probe recovered a poisoned state: mode %v", s.Mode())
	}
}

func TestObserveIgnoresOrdinaryErrors(t *testing.T) {
	s := new(State)
	s.Observe(nil)
	s.Observe(errors.New("syntax error"))
	s.Observe(errors.New("write conflict"))
	if s.Mode() != Healthy {
		t.Fatalf("ordinary errors degraded the state: mode %v", s.Mode())
	}
}

func TestProbeInstalledAfterDegradeStillRecovers(t *testing.T) {
	s := new(State)
	s.EnterReadOnly(fmt.Errorf("x: %w", syscall.ENOSPC))
	// Probe job made only after the degrade: it must still run.
	clk, sc := probeSched(t, s, func() error { return nil }, time.Millisecond)
	clk.Advance(time.Millisecond)
	sc.Settle()
	if s.Mode() != Healthy {
		t.Fatalf("late-installed probe never recovered the state: mode %v", s.Mode())
	}
}

func TestGateChecksRunsObservesAndSurfaces(t *testing.T) {
	var nilState *State
	ran := false
	if err := nilState.Gate(func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("nil Gate: ran=%v err=%v", ran, err)
	}
	plain := errors.New("plain")
	if err := nilState.Report(plain); err != plain {
		t.Fatalf("nil Report: got %v, want the error unchanged", err)
	}

	s := new(State)
	if err := s.Gate(func() error { return plain }); err != plain {
		t.Fatalf("ordinary write error: got %v, want it unchanged", err)
	}
	// The write that discovers disk exhaustion gets the typed rejection.
	full := fmt.Errorf("append: %w", syscall.ENOSPC)
	err := s.Gate(func() error { return full })
	var roe *ReadOnlyError
	if !errors.As(err, &roe) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("discovering write: got %v, want a *ReadOnlyError wrapping ENOSPC", err)
	}
	// Later writes are refused before they run.
	ran = false
	if err := s.Gate(func() error { ran = true; return nil }); !errors.Is(err, ErrReadOnly) || ran {
		t.Fatalf("gated write while read-only: ran=%v err=%v", ran, err)
	}
	// Report never refuses: a write that succeeds while degraded stays nil.
	if err := s.Report(nil); err != nil {
		t.Fatalf("Report(nil) while read-only: %v", err)
	}

	poison := &wal.PoisonedError{Cause: errors.New("fsync EIO")}
	if err := s.Report(poison); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("Report(poison): got %v, want ErrPoisoned", err)
	}
	if s.Mode() != Poisoned {
		t.Fatalf("mode %v after a poisoned write, want Poisoned", s.Mode())
	}
	if err := s.Gate(func() error { ran = true; return nil }); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("gated write after poison: got %v, want ErrPoisoned", err)
	}
}

package degrade

import (
	"errors"
	"fmt"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"apollo/internal/wal"
)

func TestHealthyAllowsWrites(t *testing.T) {
	s := New()
	defer s.Close()
	if err := s.check(); err != nil {
		t.Fatalf("healthy check: %v", err)
	}
	if s.Mode() != Healthy {
		t.Fatalf("mode %v, want Healthy", s.Mode())
	}
}

func TestENOSPCEntersReadOnlyAndProbeRecovers(t *testing.T) {
	s := New()
	defer s.Close()
	var full atomic.Bool
	full.Store(true)
	s.SetProbe(func() error {
		if full.Load() {
			return fmt.Errorf("probe: %w", syscall.ENOSPC)
		}
		return nil
	}, time.Millisecond)

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

	// Stays read-only while the probe keeps failing.
	time.Sleep(20 * time.Millisecond)
	if s.Mode() != ReadOnly {
		t.Fatalf("mode %v while probe failing, want ReadOnly", s.Mode())
	}

	// Free space; the probe flips it back.
	full.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for s.Mode() != Healthy {
		if time.Now().After(deadline) {
			t.Fatal("state never recovered after probe success")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.check(); err != nil {
		t.Fatalf("check after recovery: %v", err)
	}
	st := s.Snapshot()
	if st.ReadOnlyEntered != 1 || st.Recovered != 1 {
		t.Fatalf("transition counts entered=%d recovered=%d, want 1/1", st.ReadOnlyEntered, st.Recovered)
	}
}

func TestPoisonIsPermanentAndOverridesReadOnly(t *testing.T) {
	s := New()
	defer s.Close()
	s.SetProbe(func() error { return nil }, time.Millisecond)

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
	time.Sleep(20 * time.Millisecond)
	if s.Mode() != Poisoned {
		t.Fatalf("probe recovered a poisoned state: mode %v", s.Mode())
	}
}

func TestObserveIgnoresOrdinaryErrors(t *testing.T) {
	s := New()
	defer s.Close()
	s.Observe(nil)
	s.Observe(errors.New("syntax error"))
	s.Observe(errors.New("write conflict"))
	if s.Mode() != Healthy {
		t.Fatalf("ordinary errors degraded the state: mode %v", s.Mode())
	}
}

func TestProbeInstalledAfterDegradeStillRecovers(t *testing.T) {
	s := New()
	defer s.Close()
	s.EnterReadOnly(fmt.Errorf("x: %w", syscall.ENOSPC))
	// Probe configured only after the degrade: SetProbe must start it.
	s.SetProbe(func() error { return nil }, time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for s.Mode() != Healthy {
		if time.Now().After(deadline) {
			t.Fatal("late-installed probe never recovered the state")
		}
		time.Sleep(time.Millisecond)
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

	s := New()
	defer s.Close()
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

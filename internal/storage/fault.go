package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"
)

// TransientError is a storage failure expected to succeed on retry: an
// injected I/O fault or any other condition that does not imply the blob's
// at-rest bytes are wrong. Store.Get retries transient read failures under
// the store's RetryPolicy before giving up.
type TransientError struct {
	Blob BlobID
	Err  error
}

// Error implements error.
func (e *TransientError) Error() string {
	return fmt.Sprintf("storage: transient fault on blob %d: %v", e.Blob, e.Err)
}

// Unwrap exposes the cause.
func (e *TransientError) Unwrap() error { return e.Err }

// CorruptionError reports a checksum mismatch: the blob's raw bytes do not
// match the checksum recorded at Put time. Corruption is never retried —
// the at-rest data is wrong and re-reading cannot fix it — and the error
// names the blob so operators and repair tools can attribute the damage.
type CorruptionError struct {
	Blob BlobID
}

// Error implements error.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf("storage: blob %d checksum mismatch (corruption)", e.Blob)
}

// IsTransient reports whether err is (or wraps) a retriable storage fault.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}

// IsCorruption reports whether err is (or wraps) a checksum failure.
func IsCorruption(err error) bool {
	var ce *CorruptionError
	return errors.As(err, &ce)
}

// RetryPolicy bounds the retry-with-exponential-backoff loop around
// transient read failures.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// Values below 1 are treated as 1.
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; each subsequent
	// retry doubles it up to MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// DefaultRetryPolicy is tuned for an in-process store: enough attempts to
// ride out probabilistic fault injection without stretching query latency.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseBackoff: 200 * time.Microsecond, MaxBackoff: 5 * time.Millisecond}
}

// backoff returns the sleep before retry attempt (0-based retry index).
func (p RetryPolicy) backoff(retry int) time.Duration {
	d := p.BaseBackoff << uint(retry)
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// FaultConfig parameterizes a FaultInjector. Rates are probabilities in
// [0, 1] evaluated independently per operation.
type FaultConfig struct {
	// ReadErrorRate injects transient errors on Get (before any bytes are
	// produced). These are retriable.
	ReadErrorRate float64
	// WriteErrorRate injects transient errors on Put.
	WriteErrorRate float64
	// CorruptionRate flips one bit of the bytes produced by a Get, so the
	// checksum verification fails. The at-rest blob is NOT modified; the
	// fault models a one-off media/transfer corruption. Not retried.
	CorruptionRate float64
	// ReadLatency is added to every Get that reaches the injector (cache
	// misses), modeling a slow device.
	ReadLatency time.Duration
	// Seed makes the fault sequence reproducible; 0 seeds from the clock.
	Seed int64
}

// FaultInjector injects storage faults per FaultConfig. It is attached to a
// Store with SetFaultInjector and is safe for concurrent use.
type FaultInjector struct {
	cfg  FaultConfig
	seed int64 // resolved seed (never 0); reported so runs are reproducible

	mu  sync.Mutex
	rng *rand.Rand

	injected int64 // faults injected (errors + corruptions), under mu
}

// NewFaultInjector builds an injector for the given configuration.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &FaultInjector{cfg: cfg, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Seed returns the resolved RNG seed, whether configured or drawn from the
// clock. Re-running with FaultConfig.Seed set to this value reproduces the
// same fault sequence for the same operation order.
func (f *FaultInjector) Seed() int64 { return f.seed }

// Injected reports how many faults this injector has raised.
func (f *FaultInjector) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// roll draws one uniform sample and reports whether a fault at rate fires.
func (f *FaultInjector) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	f.mu.Lock()
	hit := f.rng.Float64() < rate
	if hit {
		f.injected++
		mFaultsInjected.Inc()
	}
	f.mu.Unlock()
	return hit
}

// beforeRead applies read latency and possibly fails the read.
func (f *FaultInjector) beforeRead(id BlobID) error {
	if f.cfg.ReadLatency > 0 {
		time.Sleep(f.cfg.ReadLatency)
	}
	if f.roll(f.cfg.ReadErrorRate) {
		return &TransientError{Blob: id, Err: errors.New("injected read fault")}
	}
	return nil
}

// beforeWrite possibly fails the write.
func (f *FaultInjector) beforeWrite() error {
	if f.roll(f.cfg.WriteErrorRate) {
		return &TransientError{Err: errors.New("injected write fault")}
	}
	return nil
}

// IsNoSpace reports whether err was caused by disk exhaustion (real or
// injected).
func IsNoSpace(err error) bool { return errors.Is(err, syscall.ENOSPC) }

// corruptRead possibly returns a bit-flipped copy of raw. The original slice
// is never modified (it may be the at-rest buffer or shared with the cache).
func (f *FaultInjector) corruptRead(raw []byte) []byte {
	if len(raw) == 0 || !f.roll(f.cfg.CorruptionRate) {
		return raw
	}
	f.mu.Lock()
	pos := f.rng.Intn(len(raw))
	bit := uint(f.rng.Intn(8))
	f.mu.Unlock()
	flipped := append([]byte(nil), raw...)
	flipped[pos] ^= 1 << bit
	return flipped
}

// Package tenant manages the per-tenant databases of a serving process: one
// durable apollo database per subdirectory of a root data directory, opened
// lazily on first request and closed again when idle or when the open-handle
// cache overflows. All tenants share the process-wide resources the caller
// wires into the database template (cache budget, memory grants, metrics
// registry); the manager's job is the handle lifecycle.
//
// Handles are refcounted: a request that acquired a handle can use its DB
// until it releases it, and the manager never closes a database that has
// in-flight requests. Eviction (LRU) and idle close only take handles with
// zero references, and a tenant being closed blocks re-open of the same
// tenant until the close has finished, so there is never more than one live
// DB instance per tenant directory — two instances would both replay and
// write the same WAL.
//
// Failure isolation: a tenant whose directory fails to open (ErrCorrupt from
// recovery, bad permissions, ...) returns that error to its own requests
// only. Nothing is cached about the failure, so an operator can repair the
// directory and the next request recovers it; other tenants are unaffected.
package tenant

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"apollo"
	"apollo/internal/metrics"
	"apollo/internal/sched"
)

// ErrManagerClosed is returned by Get after Close.
var ErrManagerClosed = errors.New("tenant: manager closed")

// ErrBadName rejects tenant names that could escape the root directory or
// produce unreadable metric labels.
var ErrBadName = errors.New("tenant: invalid tenant name (want [a-z0-9_-]{1,64})")

// Config configures a Manager.
type Config struct {
	// Root is the data directory; tenant name X lives in Root/X.
	Root string
	// Template is the database configuration every tenant opens with. Wire
	// shared resources (CacheBudget, MemoryBudget) here.
	Template apollo.Config
	// MaxOpen bounds the number of simultaneously open databases (0 =
	// unlimited). Overflow evicts the least-recently-used idle handle;
	// handles with in-flight requests are never evicted, so the bound can be
	// exceeded transiently while more than MaxOpen tenants are mid-query.
	MaxOpen int
	// IdleTimeout closes databases that have had no request for this long
	// (0 = never), checked every SweepPeriod(IdleTimeout).
	IdleTimeout time.Duration
	// OnOpen, when set, runs after each successful open (metrics, logging).
	OnOpen func(name string, db *apollo.DB)
}

// Manager owns the open-handle cache.
type Manager struct {
	cfg     Config
	now     func() time.Time
	janitor *sched.Job // closes idle databases; nil without IdleTimeout

	mu      sync.Mutex
	open    map[string]*Handle
	pending map[string]chan struct{} // open or close in progress; wait and retry
	closed  bool

	openGauge *metrics.Gauge
	evictions *metrics.Counter
}

// Handle is a leased reference to one tenant's open database. Release it when
// the request finishes; the DB is only closed once every lease is back.
type Handle struct {
	name string
	db   *apollo.DB
	m    *Manager

	// Guarded by m.mu.
	refs    int
	lastUse time.Time
}

// SweepPeriod is how often a job enforcing an idle timeout runs: every
// quarter of the timeout, but at most every 10ms, so a tiny timeout neither
// makes the job always due nor stops it.
func SweepPeriod(timeout time.Duration) time.Duration {
	return max(timeout/4, 10*time.Millisecond)
}

// New creates a manager whose idle close is a job on s; s's clock stamps
// each handle's last use. Call Close to shut every tenant down.
func New(cfg Config, s *sched.Scheduler) *Manager {
	m := &Manager{
		cfg:     cfg,
		now:     s.Now,
		open:    map[string]*Handle{},
		pending: map[string]chan struct{}{},
		openGauge: metrics.Default.Gauge("apollod_tenants_open",
			"Tenant databases currently open in this process."),
		evictions: metrics.Default.Counter("apollod_tenant_evictions_total",
			"Idle tenant databases closed by LRU eviction or idle timeout."),
	}
	if cfg.IdleTimeout > 0 {
		period := SweepPeriod(cfg.IdleTimeout)
		m.janitor = &sched.Job{
			Name: "tenant janitor",
			Due:  func(_, last time.Time, _ bool) time.Time { return last.Add(period) },
			Run:  func(context.Context) { m.closeIdle() },
		}
		s.Add(m.janitor)
	}
	return m
}

// ValidName reports whether name is an acceptable tenant name: 1-64 runes of
// [a-z0-9_-]. This keeps tenant names safe as path components and metric
// label values.
func ValidName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Get returns a leased handle to the named tenant's database, opening (and
// recovering) it on first request. The caller must Release the handle. An
// open failure is returned to this caller only and nothing is cached, so a
// repaired tenant recovers on its next request.
func (m *Manager) Get(ctx context.Context, name string) (*Handle, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, ErrManagerClosed
		}
		if h := m.open[name]; h != nil {
			h.refs++
			h.lastUse = m.now()
			m.mu.Unlock()
			return h, nil
		}
		if ch := m.pending[name]; ch != nil {
			// Another goroutine is opening or closing this tenant; wait for
			// it to settle and re-evaluate. An open that succeeds leaves the
			// handle in the map for us; a failed open leaves nothing and we
			// try the open ourselves.
			m.mu.Unlock()
			select {
			case <-ch:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			continue
		}
		ch := make(chan struct{})
		m.pending[name] = ch
		m.mu.Unlock()
		return m.openTenant(ctx, name, ch)
	}
}

// openTenant performs the actual OpenDir with the pending marker held.
func (m *Manager) openTenant(ctx context.Context, name string, ch chan struct{}) (*Handle, error) {
	settle := func() {
		m.mu.Lock()
		delete(m.pending, name)
		m.mu.Unlock()
		close(ch)
	}
	if err := ctx.Err(); err != nil {
		settle()
		return nil, err
	}
	db, err := apollo.OpenDir(m.cfg.Root+"/"+name, m.cfg.Template)
	if err != nil {
		settle()
		return nil, fmt.Errorf("tenant %s: %w", name, err)
	}
	m.mu.Lock()
	if m.closed {
		delete(m.pending, name)
		m.mu.Unlock()
		close(ch)
		db.Close()
		return nil, ErrManagerClosed
	}
	h := &Handle{name: name, db: db, m: m, refs: 1, lastUse: m.now()}
	m.open[name] = h
	m.openGauge.Set(float64(len(m.open)))
	evict := m.overflowLocked()
	delete(m.pending, name)
	m.mu.Unlock()
	close(ch)
	m.closeAll(evict)
	if m.cfg.OnOpen != nil {
		m.cfg.OnOpen(name, db)
	}
	return h, nil
}

// DB returns the handle's database.
func (h *Handle) DB() *apollo.DB { return h.db }

// Name returns the tenant name.
func (h *Handle) Name() string { return h.name }

// Release returns the lease. The handle must not be used afterwards.
func (h *Handle) Release() {
	m := h.m
	m.mu.Lock()
	h.refs--
	h.lastUse = m.now()
	// A handle that was busy while the cache overflowed escapes eviction at
	// open time; settle the bound when it goes idle.
	evict := m.overflowLocked()
	m.mu.Unlock()
	m.closeAll(evict)
}

// overflowLocked picks LRU idle victims until the cache fits MaxOpen.
// Called with m.mu held; the caller closes the returned handles unlocked.
func (m *Manager) overflowLocked() []*Handle {
	if m.cfg.MaxOpen <= 0 {
		return nil
	}
	var evict []*Handle
	for len(m.open) > m.cfg.MaxOpen {
		var victim *Handle
		for _, h := range m.open {
			if h.refs > 0 {
				continue
			}
			if victim == nil || h.lastUse.Before(victim.lastUse) {
				victim = h
			}
		}
		if victim == nil {
			break // everything busy; transiently over the bound
		}
		m.detachLocked(victim)
		evict = append(evict, victim)
	}
	return evict
}

// detachLocked removes h from the open map and installs a pending marker so
// a re-open of the same tenant waits for the close to finish.
func (m *Manager) detachLocked(h *Handle) {
	delete(m.open, h.name)
	m.openGauge.Set(float64(len(m.open)))
	if _, ok := m.pending[h.name]; !ok {
		m.pending[h.name] = make(chan struct{})
	}
}

// closeAll closes detached handles and clears their pending markers.
func (m *Manager) closeAll(hs []*Handle) {
	for _, h := range hs {
		h.db.Close()
		m.evictions.Inc()
		m.mu.Lock()
		if ch, ok := m.pending[h.name]; ok {
			delete(m.pending, h.name)
			close(ch)
		}
		m.mu.Unlock()
	}
}

// closeIdle is the janitor's run: it closes the databases nobody has
// leased for longer than IdleTimeout.
func (m *Manager) closeIdle() {
	cutoff := m.now().Add(-m.cfg.IdleTimeout)
	var evict []*Handle
	m.mu.Lock()
	for _, h := range m.open {
		if h.refs == 0 && h.lastUse.Before(cutoff) {
			m.detachLocked(h)
			evict = append(evict, h)
		}
	}
	m.mu.Unlock()
	m.closeAll(evict)
}

// OpenCount returns the number of currently open tenant databases.
func (m *Manager) OpenCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.open)
}

// Names returns the names of currently open tenants (unordered).
func (m *Manager) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.open))
	for n := range m.open {
		names = append(names, n)
	}
	return names
}

// Close shuts every open tenant database down and rejects further Gets.
// Databases with in-flight requests are closed anyway — their statements get
// apollo.ErrClosed, which is the contract a shutting-down server wants.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	handles := make([]*Handle, 0, len(m.open))
	for _, h := range m.open {
		handles = append(handles, h)
	}
	m.open = map[string]*Handle{}
	m.openGauge.Set(0)
	// Wake every waiter parked on a pending open/close; they observe closed
	// and fail with ErrManagerClosed.
	for name, ch := range m.pending {
		delete(m.pending, name)
		close(ch)
	}
	m.mu.Unlock()
	m.janitor.Remove()
	for _, h := range handles {
		h.db.Close()
	}
}

// String implements fmt.Stringer for debug logs.
func (m *Manager) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return fmt.Sprintf("tenant.Manager{root=%s open=[%s]}", m.cfg.Root, strings.Join(namesLocked(m.open), ","))
}

func namesLocked(open map[string]*Handle) []string {
	names := make([]string, 0, len(open))
	for n := range open {
		names = append(names, n)
	}
	return names
}

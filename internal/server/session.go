package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"

	"apollo"
	"apollo/internal/metrics"
	"apollo/internal/sched"
	"apollo/internal/server/tenant"
)

// liveSession is one client's server-side session: a pinned tenant handle, a
// SQL session carrying transaction state across requests, and a bounded
// prepared-statement cache so parameterized statements reuse their compiled
// plans. Requests against one session are serialized by mu (the usual
// one-statement-at-a-time connection discipline); distinct sessions are
// independent.
type liveSession struct {
	id     string
	tenant string
	h      *tenant.Handle
	sess   *apollo.Session

	mu      sync.Mutex // held for the duration of each statement
	lastUse time.Time  // guarded by mu
	closed  bool       // guarded by mu

	stmts     map[string]*apollo.Stmt // guarded by mu
	stmtOrder []string
}

// maxCachedStmts bounds each session's prepared-plan cache.
const maxCachedStmts = 64

// stmt returns the cached prepared statement for src, preparing and caching
// it on first use. Caller holds s.mu; the statement stays valid for the
// session's lifetime because the session pins its tenant handle.
func (s *liveSession) stmt(src string) (*apollo.Stmt, error) {
	if st, ok := s.stmts[src]; ok {
		return st, nil
	}
	st, err := s.h.DB().Prepare(src)
	if err != nil {
		return nil, err
	}
	if s.stmts == nil {
		s.stmts = map[string]*apollo.Stmt{}
	}
	if len(s.stmtOrder) >= maxCachedStmts {
		oldest := s.stmtOrder[0]
		s.stmtOrder = s.stmtOrder[1:]
		delete(s.stmts, oldest)
	}
	s.stmts[src] = st
	s.stmtOrder = append(s.stmtOrder, src)
	return st, nil
}

// sessionTable owns every live session; its idle reaper is a job on the
// server's scheduler, whose clock stamps each session's last use.
type sessionTable struct {
	mu   sync.Mutex
	byID map[string]*liveSession

	idleTxn time.Duration // kill sessions holding a transaction idle this long
	idle    time.Duration // kill any session idle this long
	now     func() time.Time

	gauge  *metrics.Gauge
	reaped *metrics.Counter
}

// newSessionTable adds the reaper to s when either idle timeout is set: it
// sweeps every tenant.SweepPeriod of the shorter one.
func newSessionTable(idleTxn, idle time.Duration, s *sched.Scheduler) *sessionTable {
	t := &sessionTable{
		byID:    map[string]*liveSession{},
		idleTxn: idleTxn,
		idle:    idle,
		now:     s.Now,
		gauge: metrics.Default.Gauge("apollod_sessions_open",
			"Server-side SQL sessions currently open."),
		reaped: metrics.Default.Counter("apollod_sessions_reaped_total",
			"Sessions closed by the idle reaper (open transactions rolled back)."),
	}
	timeout := idleTxn
	if idle > 0 && (timeout == 0 || idle < timeout) {
		timeout = idle
	}
	if timeout > 0 {
		period := tenant.SweepPeriod(timeout)
		s.Add(&sched.Job{
			Name: "session reaper",
			Due:  func(_, last time.Time, _ bool) time.Time { return last.Add(period) },
			Run:  func(context.Context) { t.sweep() },
		})
	}
	return t
}

// newID returns a 128-bit random session token.
func newID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return hex.EncodeToString(b[:])
}

// create registers a session over the given (already leased) tenant handle.
// The session owns the lease from here on.
func (t *sessionTable) create(tenantName string, h *tenant.Handle) *liveSession {
	s := &liveSession{
		id:      newID(),
		tenant:  tenantName,
		h:       h,
		sess:    h.DB().Session(),
		lastUse: t.now(),
	}
	t.mu.Lock()
	t.byID[s.id] = s
	t.gauge.Set(float64(len(t.byID)))
	t.mu.Unlock()
	return s
}

// get looks a session up by id. The caller must lock s.mu before use and
// re-check s.closed (the reaper may have won the race).
func (t *sessionTable) get(id string) *liveSession {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

// remove closes a session: rolls back any open transaction and releases the
// tenant lease. s.mu is held across teardown, so a statement in flight
// finishes first and no statement starts afterwards. Safe to call twice.
func (t *sessionTable) remove(s *liveSession) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.sess.Close() // rolls back an open transaction
	s.h.Release()
	s.mu.Unlock()
	t.mu.Lock()
	delete(t.byID, s.id)
	t.gauge.Set(float64(len(t.byID)))
	t.mu.Unlock()
}

// sweep is the reaper's run: it closes the sessions past an idle deadline.
// A session mid-statement is never touched (TryLock fails while a request
// holds the session).
func (t *sessionTable) sweep() {
	now := t.now()
	t.mu.Lock()
	candidates := make([]*liveSession, 0, len(t.byID))
	for _, s := range t.byID {
		candidates = append(candidates, s)
	}
	t.mu.Unlock()
	for _, s := range candidates {
		if !s.mu.TryLock() {
			continue // statement in flight; it will refresh lastUse
		}
		idle := now.Sub(s.lastUse)
		expired := !s.closed &&
			((t.idleTxn > 0 && s.sess.InTxn() && idle > t.idleTxn) ||
				(t.idle > 0 && idle > t.idle))
		s.mu.Unlock()
		if expired {
			// remove re-acquires s.mu; if a request slipped in meanwhile it
			// merely finishes before teardown — the session was already past
			// its idle deadline when we checked.
			t.remove(s)
			t.reaped.Inc()
		}
	}
}

// closeAll tears every session down (server shutdown, after the reaper
// has stopped).
func (t *sessionTable) closeAll() {
	t.mu.Lock()
	all := make([]*liveSession, 0, len(t.byID))
	for _, s := range t.byID {
		all = append(all, s)
	}
	t.mu.Unlock()
	for _, s := range all {
		t.remove(s)
	}
}

// use acquires s for one statement, refusing if it was closed. Returns an
// unlock func.
func (t *sessionTable) use(s *liveSession) (func(), error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errSessionGone
	}
	s.lastUse = t.now()
	return func() {
		s.lastUse = t.now()
		s.mu.Unlock()
	}, nil
}

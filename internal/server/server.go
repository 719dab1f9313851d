// Package server is apollod's wire and session layer: an HTTP/JSON API over
// the multi-tenant engine, with API-key authentication, server-side sessions
// carrying transaction state across requests, streaming query results, and
// admission control fronted by the shared-resource broker.
//
// Endpoints (all statement bodies are JSON):
//
//	POST   /v1/sessions        create a session        -> {"session": id}
//	DELETE /v1/sessions/{id}   close a session (rolls back an open txn)
//	POST   /v1/exec            {"sql", "args"?, "session"?} -> materialized result
//	POST   /v1/query           same body -> NDJSON stream: columns, rows, done
//	POST   /v1/explain         {"sql", "analyze"?} -> plan text
//	GET    /metrics            Prometheus text exposition (unauthenticated)
//	GET    /healthz            liveness (unauthenticated)
//
// Authentication is a bearer API key (Authorization: Bearer <key>); each key
// names one tenant, and every authenticated request is scoped to that
// tenant's database. Statement errors map to typed JSON error bodies:
// admission shed -> 429 "overloaded", write conflict -> 409
// "write_conflict", database shutting down -> 503 "closed", unknown or
// expired session -> 410 "session_gone".
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"apollo"
	"apollo/internal/metrics"
	"apollo/internal/qerr"
	"apollo/internal/sched"
	"apollo/internal/server/broker"
	"apollo/internal/server/tenant"
	"apollo/internal/sqltypes"
)

var errSessionGone = errors.New("server: session closed or expired")

// Config assembles a server.
type Config struct {
	// Root is the tenant data directory (one subdirectory per tenant).
	Root string
	// Tenants maps tenant name -> API key. Only named tenants are servable.
	Tenants map[string]string
	// DB is the per-tenant database template (mode, fsync policy, ...).
	// CacheBudget and MemoryBudget are overwritten from the broker.
	DB apollo.Config
	// CacheBytes is the process-wide buffer-pool budget shared by every
	// tenant (see broker.Broker).
	CacheBytes int64
	// Limits configures admission control.
	Limits broker.Limits
	// MaxOpenTenants bounds simultaneously open tenant databases (0 = all).
	MaxOpenTenants int
	// IdleTenantTimeout closes tenant databases with no traffic (0 = never),
	// checked every quarter of it, but at most every 10ms.
	IdleTenantTimeout time.Duration
	// IdleTxnTimeout kills sessions holding a transaction idle this long;
	// the transaction is rolled back (default 1m, <0 disables).
	IdleTxnTimeout time.Duration
	// IdleSessionTimeout kills any session idle this long (default 15m,
	// <0 disables).
	IdleSessionTimeout time.Duration
	// LoadQueueDepth bounds the per-request row channel between the /v1/load
	// decoder and the compressor (default 1024). A full channel blocks the
	// request-body read — TCP backpressure to the client.
	LoadQueueDepth int
}

// Server serves N tenant databases from one process. Create with New, attach
// Handler to an http.Server, Close on shutdown.
type Server struct {
	cfg      Config
	brk      *broker.Broker
	sched    *sched.Scheduler // runs the session reaper and the tenant janitor
	tenants  *tenant.Manager
	sessions *sessionTable
	keys     map[string]string // API key -> tenant name
	mux      *http.ServeMux

	rowsStreamed *metrics.Counter
	rowsLoaded   *metrics.Counter
}

// New wires the serving stack together: broker (shared cache + admission),
// tenant manager (lazy per-tenant databases drawing on the broker's budget),
// session table, the scheduler that reaps idle sessions and tenants, and
// HTTP routes.
func New(cfg Config) (*Server, error) { return newServer(cfg, time.Now) }

// newServer is New with the scheduler reading the time from now.
func newServer(cfg Config, now func() time.Time) (*Server, error) {
	if cfg.Root == "" {
		return nil, fmt.Errorf("server: Config.Root is required")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("server: no tenants configured")
	}
	if cfg.IdleTxnTimeout == 0 {
		cfg.IdleTxnTimeout = time.Minute
	} else if cfg.IdleTxnTimeout < 0 {
		cfg.IdleTxnTimeout = 0
	}
	if cfg.IdleSessionTimeout == 0 {
		cfg.IdleSessionTimeout = 15 * time.Minute
	} else if cfg.IdleSessionTimeout < 0 {
		cfg.IdleSessionTimeout = 0
	}
	keys := make(map[string]string, len(cfg.Tenants))
	for name, key := range cfg.Tenants {
		if !tenant.ValidName(name) {
			return nil, fmt.Errorf("server: %w: %q", tenant.ErrBadName, name)
		}
		if key == "" {
			return nil, fmt.Errorf("server: tenant %q has an empty API key", name)
		}
		if other, dup := keys[key]; dup {
			return nil, fmt.Errorf("server: tenants %q and %q share an API key", other, name)
		}
		keys[key] = name
	}

	brk := broker.New(cfg.CacheBytes, cfg.Limits)
	tpl := cfg.DB
	tpl.CacheBudget = brk.Cache
	if g := brk.GrantBytes(); g > 0 {
		tpl.MemoryBudget = g
	}
	bg := sched.New(now)
	s := &Server{
		cfg:   cfg,
		brk:   brk,
		sched: bg,
		tenants: tenant.New(tenant.Config{
			Root:        cfg.Root,
			Template:    tpl,
			MaxOpen:     cfg.MaxOpenTenants,
			IdleTimeout: cfg.IdleTenantTimeout,
		}, bg),
		sessions: newSessionTable(cfg.IdleTxnTimeout, cfg.IdleSessionTimeout, bg),
		keys:     keys,
		mux:      http.NewServeMux(),
	}
	s.rowsStreamed = metrics.Default.Counter("apollod_rows_streamed_total",
		"Result rows written to the wire across all tenants.")
	s.rowsLoaded = metrics.Default.Counter("apollod_rows_loaded_total",
		"Rows ingested through /v1/load across all tenants.")
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/sessions", s.auth(s.handleSessionCreate))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.auth(s.handleSessionDelete))
	s.mux.HandleFunc("POST /v1/exec", s.auth(s.handleExec))
	s.mux.HandleFunc("POST /v1/query", s.auth(s.handleQuery))
	s.mux.HandleFunc("POST /v1/explain", s.auth(s.handleExplain))
	s.mux.HandleFunc("POST /v1/load", s.auth(s.handleLoad))
	s.mux.HandleFunc("GET /v1/health", s.auth(s.handleHealth))
	return s, nil
}

// Handler returns the HTTP handler to serve.
func (s *Server) Handler() http.Handler { return s.mux }

// Broker exposes the shared-resource layer (tests, cmd wiring).
func (s *Server) Broker() *broker.Broker { return s.brk }

// Close tears the serving stack down: the scheduler first (waiting for a
// sweep in flight), then sessions (rolling back their transactions), then
// every tenant database.
func (s *Server) Close() {
	s.sched.Stop()
	s.sessions.closeAll()
	s.tenants.Close()
}

// --- request/response shapes ---

type stmtRequest struct {
	SQL     string            `json:"sql"`
	Args    []json.RawMessage `json:"args,omitempty"`
	Session string            `json:"session,omitempty"`
	Analyze bool              `json:"analyze,omitempty"` // explain only
}

type execResponse struct {
	Columns   []string `json:"columns,omitempty"`
	Rows      [][]any  `json:"rows,omitempty"`
	Affected  int      `json:"affected"`
	Message   string   `json:"message,omitempty"`
	InTxn     bool     `json:"in_txn"`
	ElapsedMs float64  `json:"elapsed_ms"`
}

type wireError struct {
	Code    string `json:"code"`
	Tenant  string `json:"tenant,omitempty"`
	Message string `json:"message"`
}

// writeError maps err to an HTTP status and a typed JSON body.
func writeError(w http.ResponseWriter, err error) {
	status, code, tenantName := classify(err)
	w.Header().Set("Content-Type", "application/json")
	if code == "read_only" {
		// Disk exhaustion is transient from the client's view: the DB probes
		// for reclaimed space and restores writes on its own. Tell well-
		// behaved clients when to come back.
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]wireError{"error": {
		Code: code, Tenant: tenantName, Message: err.Error(),
	}})
}

// classify maps an error to (HTTP status, wire code, tenant).
func classify(err error) (int, string, string) {
	var ov *broker.OverloadError
	var qe *qerr.QueryError
	switch {
	case errors.As(err, &ov):
		return http.StatusTooManyRequests, "overloaded", ov.Tenant
	case errors.Is(err, apollo.ErrWriteConflict):
		return http.StatusConflict, "write_conflict", ""
	case errors.Is(err, apollo.ErrReadOnly):
		// Writes rejected while the tenant DB is degraded read-only (disk
		// full). Reads still work; the auto-probe will recover writability.
		return http.StatusServiceUnavailable, "read_only", ""
	case errors.Is(err, apollo.ErrWALPoisoned):
		// Permanent fail-stop after a failed fsync; only restart clears it.
		return http.StatusServiceUnavailable, "degraded", ""
	case errors.Is(err, apollo.ErrClosed), errors.Is(err, tenant.ErrManagerClosed):
		return http.StatusServiceUnavailable, "closed", ""
	case errors.Is(err, errSessionGone):
		return http.StatusGone, "session_gone", ""
	case errors.Is(err, tenant.ErrBadName):
		return http.StatusBadRequest, "bad_tenant", ""
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout", ""
	case errors.Is(err, context.Canceled):
		return 499, "canceled", "" // nginx convention: client closed request
	case errors.As(err, &qe):
		return http.StatusInternalServerError, "query", ""
	default:
		// Parse, bind, and semantic SQL errors: the client's statement.
		return http.StatusBadRequest, "sql", ""
	}
}

// --- auth ---

// auth wraps a handler with bearer-key authentication and stores the tenant
// name in the request context.
func (s *Server) auth(next func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		hdr := r.Header.Get("Authorization")
		key, ok := strings.CutPrefix(hdr, "Bearer ")
		if !ok || key == "" {
			w.Header().Set("WWW-Authenticate", "Bearer")
			http.Error(w, `{"error":{"code":"unauthenticated","message":"missing bearer API key"}}`, http.StatusUnauthorized)
			return
		}
		name, ok := s.keys[key]
		if !ok {
			http.Error(w, `{"error":{"code":"unauthenticated","message":"unknown API key"}}`, http.StatusUnauthorized)
			return
		}
		next(w, r, name)
	}
}

// --- plumbing handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok","tenants_open":%d}`+"\n", s.tenants.OpenCount())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	metrics.Default.WriteText(w)
}

// handleHealth reports the authenticated tenant's durability health: the
// write-availability mode (healthy / read_only / poisoned), the WAL
// position, integrity-scrub progress, and per-table degradation. Unlike
// /healthz this is per-tenant and requires auth — it exposes table names.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request, tenantName string) {
	h, err := s.tenants.Get(r.Context(), tenantName)
	if err != nil {
		writeError(w, err)
		return
	}
	defer h.Release()
	hs := h.DB().Health()
	type tableHealth struct {
		Moves            int64  `json:"moves"`
		Failures         int64  `json:"failures"`
		QuarantinedBlobs int    `json:"quarantined_blobs,omitempty"`
		LastQuarantine   string `json:"last_quarantine,omitempty"`
	}
	resp := struct {
		Mode            string                 `json:"mode"`
		Cause           string                 `json:"cause,omitempty"`
		Since           string                 `json:"since,omitempty"`
		ReadOnlyEntered int64                  `json:"readonly_entered"`
		Recovered       int64                  `json:"recovered"`
		WALSeq          uint64                 `json:"wal_seq"`
		WALPoisoned     bool                   `json:"wal_poisoned"`
		ScrubPasses     int64                  `json:"scrub_passes"`
		ScrubQuarantine int64                  `json:"scrub_quarantined,omitempty"`
		Tables          map[string]tableHealth `json:"tables"`
	}{
		Mode:            hs.Mode.String(),
		Cause:           hs.Cause,
		ReadOnlyEntered: hs.ReadOnlyEntered,
		Recovered:       hs.Recovered,
		WALSeq:          hs.WAL.Seq,
		WALPoisoned:     hs.WAL.Poisoned,
		ScrubPasses:     hs.ScrubPasses,
		Tables:          make(map[string]tableHealth),
	}
	if !hs.Since.IsZero() && hs.Mode != apollo.ModeHealthy {
		resp.Since = hs.Since.UTC().Format(time.RFC3339)
	}
	if hs.LastScrub != nil {
		resp.ScrubQuarantine = hs.LastScrub.Quarantined
	}
	for name, th := range hs.Tables {
		e := tableHealth{
			Moves:            th.Moves,
			Failures:         th.Failures,
			QuarantinedBlobs: th.QuarantinedBlobs,
		}
		if th.LastQuarantine != nil {
			e.LastQuarantine = th.LastQuarantine.Error()
		}
		resp.Tables[name] = e
	}
	w.Header().Set("Content-Type", "application/json")
	if hs.Mode != apollo.ModeHealthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(resp) //nolint:errcheck
}

// --- session handlers ---

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request, tenantName string) {
	h, err := s.tenants.Get(r.Context(), tenantName)
	if err != nil {
		writeError(w, err)
		return
	}
	ls := s.sessions.create(tenantName, h) // session owns the lease now
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"session": ls.id})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request, tenantName string) {
	ls := s.sessions.get(r.PathValue("id"))
	if ls == nil || ls.tenant != tenantName {
		writeError(w, errSessionGone)
		return
	}
	s.sessions.remove(ls)
	w.WriteHeader(http.StatusNoContent)
}

// --- statement handlers ---

// withSession resolves the request's execution context: the named server
// session, or a one-shot autocommit session over a per-request tenant lease.
// It returns the SQL session, the tenant DB, and a done func.
func (s *Server) withSession(r *http.Request, tenantName string, req *stmtRequest) (*apollo.Session, *apollo.DB, *liveSession, func(), error) {
	if req.Session != "" {
		ls := s.sessions.get(req.Session)
		if ls == nil || ls.tenant != tenantName {
			return nil, nil, nil, nil, errSessionGone
		}
		unlock, err := s.sessions.use(ls)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		return ls.sess, ls.h.DB(), ls, unlock, nil
	}
	h, err := s.tenants.Get(r.Context(), tenantName)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	sess := h.DB().Session()
	return sess, h.DB(), nil, func() {
		sess.Close()
		h.Release()
	}, nil
}

func decodeStmt(r *http.Request) (*stmtRequest, error) {
	var req stmtRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if strings.TrimSpace(req.SQL) == "" {
		return nil, fmt.Errorf("empty sql")
	}
	return &req, nil
}

// handleExec executes one statement and returns the materialized result.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request, tenantName string) {
	req, err := decodeStmt(r)
	if err != nil {
		writeError(w, err)
		return
	}
	release, err := s.brk.Admit(r.Context(), tenantName)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	sess, db, ls, done, err := s.withSession(r, tenantName, req)
	if err != nil {
		writeError(w, err)
		return
	}
	defer done()

	start := time.Now()
	res, err := s.runStmt(r.Context(), sess, db, ls, req)
	if err != nil {
		writeError(w, err)
		return
	}
	out := execResponse{
		Columns:   res.Columns,
		Affected:  res.Affected,
		Message:   res.Message,
		InTxn:     sess.InTxn(),
		ElapsedMs: float64(time.Since(start).Microseconds()) / 1000,
	}
	for _, row := range res.Rows {
		out.Rows = append(out.Rows, jsonRow(row))
	}
	s.rowsStreamed.Add(int64(len(res.Rows)))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// runStmt dispatches one statement, using the prepared path when arguments
// are present (cached per session, one-shot otherwise).
func (s *Server) runStmt(ctx context.Context, sess *apollo.Session, db *apollo.DB, ls *liveSession, req *stmtRequest) (*apollo.Result, error) {
	if len(req.Args) == 0 {
		return sess.ExecContext(ctx, req.SQL)
	}
	args, err := decodeArgs(req.Args)
	if err != nil {
		return nil, err
	}
	st, err := s.prepared(db, ls, req.SQL)
	if err != nil {
		return nil, err
	}
	return sess.ExecPrepared(ctx, st, args...)
}

// prepared resolves the statement through the session plan cache, or
// one-shot for stateless requests.
func (s *Server) prepared(db *apollo.DB, ls *liveSession, src string) (*apollo.Stmt, error) {
	if ls != nil {
		return ls.stmt(src) // caller holds ls.mu via use()
	}
	return db.Prepare(src)
}

// handleExplain runs EXPLAIN (or EXPLAIN ANALYZE) for the statement.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, tenantName string) {
	req, err := decodeStmt(r)
	if err != nil {
		writeError(w, err)
		return
	}
	kw := "EXPLAIN "
	if req.Analyze {
		kw = "EXPLAIN ANALYZE "
	}
	sql := req.SQL
	if !strings.HasPrefix(strings.ToUpper(strings.TrimSpace(sql)), "EXPLAIN") {
		sql = kw + sql
	}
	req.SQL = sql
	req.Args = nil // plans, not executions, are the product here
	release, err := s.brk.Admit(r.Context(), tenantName)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	sess, _, _, done, err := s.withSession(r, tenantName, req)
	if err != nil {
		writeError(w, err)
		return
	}
	defer done()
	res, err := sess.ExecContext(r.Context(), req.SQL)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"plan": res.Message})
}

// --- streaming query handler ---

// streamSink encodes rows as NDJSON chunks, flushing every flushEvery rows
// — and at least every interval, so a slow producer (a selective scan
// trickling out matches) still delivers buffered rows to the client instead
// of stalling until 256 accumulate. The clock check rides each Row call; no
// timer goroutine touches the http.ResponseWriter (it is not safe for
// concurrent use), so staleness is bounded to one interval past the last
// row written.
type streamSink struct {
	flush    http.Flusher
	enc      *json.Encoder
	rows     int64
	pending  int
	started  bool
	interval time.Duration // 0 = row-count flushing only
	last     time.Time     // when the wire was last flushed
}

const flushEvery = 256

// flushInterval bounds how long a streamed row can sit buffered server-side.
const flushInterval = 100 * time.Millisecond

type wireColumn struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

func (k *streamSink) Schema(schema *sqltypes.Schema) error {
	k.started = true
	cols := make([]wireColumn, len(schema.Cols))
	for i, c := range schema.Cols {
		cols[i] = wireColumn{Name: c.Name, Type: c.Typ.String()}
	}
	if err := k.enc.Encode(map[string][]wireColumn{"columns": cols}); err != nil {
		return err
	}
	k.doFlush()
	return nil
}

func (k *streamSink) Row(row sqltypes.Row) error {
	if err := k.enc.Encode(map[string][]any{"row": jsonRow(row)}); err != nil {
		return err
	}
	k.rows++
	k.pending++
	if k.pending >= flushEvery || (k.interval > 0 && time.Since(k.last) >= k.interval) {
		k.doFlush()
	}
	return nil
}

func (k *streamSink) doFlush() {
	k.pending = 0
	k.last = time.Now()
	if k.flush != nil {
		k.flush.Flush()
	}
}

// handleQuery executes one statement, streaming a SELECT's rows as NDJSON.
// Errors before the first byte map to HTTP statuses; errors mid-stream are
// delivered in-band as a terminal {"error": ...} line.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, tenantName string) {
	req, err := decodeStmt(r)
	if err != nil {
		writeError(w, err)
		return
	}
	release, err := s.brk.Admit(r.Context(), tenantName)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	sess, db, ls, done, err := s.withSession(r, tenantName, req)
	if err != nil {
		writeError(w, err)
		return
	}
	defer done()

	// NDJSON from the first byte: the schema line is written mid-execution,
	// so the content type must be committed before the query runs.
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	sink := &streamSink{flush: flusher, enc: json.NewEncoder(w), interval: flushInterval, last: time.Now()}
	start := time.Now()

	run := func() (*apollo.Result, error) {
		if len(req.Args) == 0 {
			return sess.StreamContext(r.Context(), req.SQL, sink)
		}
		args, err := decodeArgs(req.Args)
		if err != nil {
			return nil, err
		}
		st, err := s.prepared(db, ls, req.SQL)
		if err != nil {
			return nil, err
		}
		return sess.StreamPrepared(r.Context(), st, sink, args...)
	}

	res, err := run()
	s.rowsStreamed.Add(sink.rows)
	if err != nil {
		if !sink.started {
			// Nothing on the wire yet: a real HTTP error status.
			w.Header().Del("Content-Type")
			writeError(w, err)
			return
		}
		// Mid-stream failure: the 200 is committed, deliver the error
		// in-band as the terminal line.
		_, code, _ := classify(err)
		sink.enc.Encode(map[string]wireError{"error": {Code: code, Message: err.Error()}})
		sink.doFlush()
		return
	}
	sink.enc.Encode(map[string]any{"done": map[string]any{
		"rows":       sink.rows,
		"affected":   res.Affected,
		"message":    res.Message,
		"in_txn":     sess.InTxn(),
		"elapsed_ms": float64(time.Since(start).Microseconds()) / 1000,
	}})
	sink.doFlush()
}

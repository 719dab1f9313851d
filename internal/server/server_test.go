package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"apollo"
	"apollo/internal/sched"
	"apollo/internal/server/broker"
	"apollo/internal/server/tenant"
)

func testServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	return testServerAt(t, mutate, time.Now)
}

// testServerAt is testServer with the server's scheduler reading now.
func testServerAt(t *testing.T, mutate func(*Config), now func() time.Time) (*Server, *httptest.Server) {
	t.Helper()
	dbcfg := apollo.DefaultConfig()
	dbcfg.TupleMoverInterval = 0
	cfg := Config{
		Root:       t.TempDir(),
		Tenants:    map[string]string{"t1": "key1", "t2": "key2"},
		DB:         dbcfg,
		CacheBytes: 64 << 20,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := newServer(cfg, now)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// do sends one JSON request with the given bearer key.
func do(t *testing.T, ts *httptest.Server, method, path, key string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, ts.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func exec(t *testing.T, ts *httptest.Server, key, sql string, extra map[string]any) execResponse {
	t.Helper()
	body := map[string]any{"sql": sql}
	for k, v := range extra {
		body[k] = v
	}
	resp, out := do(t, ts, "POST", "/v1/exec", key, body)
	if resp.StatusCode != 200 {
		t.Fatalf("exec %q: HTTP %d: %s", sql, resp.StatusCode, out)
	}
	var r execResponse
	if err := json.Unmarshal(out, &r); err != nil {
		t.Fatalf("exec %q: bad body %s: %v", sql, out, err)
	}
	return r
}

func wantStatus(t *testing.T, resp *http.Response, body []byte, status int, code string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("HTTP %d (want %d): %s", resp.StatusCode, status, body)
	}
	if code != "" && !strings.Contains(string(body), `"code":"`+code+`"`) {
		t.Fatalf("body missing code %q: %s", code, body)
	}
}

func TestAuthRequired(t *testing.T) {
	_, ts := testServer(t, nil)
	for _, key := range []string{"", "wrong"} {
		resp, body := do(t, ts, "POST", "/v1/exec", key, map[string]any{"sql": "SELECT 1"})
		wantStatus(t, resp, body, 401, "unauthenticated")
	}
	// healthz and metrics stay open.
	resp, _ := do(t, ts, "GET", "/healthz", "", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

func TestExecAndStreamingQuery(t *testing.T) {
	_, ts := testServer(t, nil)
	exec(t, ts, "key1", "CREATE TABLE t (a BIGINT, s VARCHAR NULL, d DATE)", nil)
	exec(t, ts, "key1", "INSERT INTO t VALUES (1, 'x', '2024-03-01'), (2, NULL, '2024-03-02')", nil)

	// Materialized exec.
	r := exec(t, ts, "key1", "SELECT a, s, d FROM t ORDER BY a", nil)
	if len(r.Rows) != 2 || r.Columns[0] != "a" {
		t.Fatalf("exec rows = %+v", r)
	}
	if r.Rows[0][0] != float64(1) || r.Rows[1][1] != nil || r.Rows[1][2] != "2024-03-02" {
		t.Fatalf("value encoding: %+v", r.Rows)
	}

	// Streaming query: columns line, row lines, done line.
	resp, out := do(t, ts, "POST", "/v1/query", "key1", map[string]any{"sql": "SELECT a FROM t ORDER BY a"})
	if resp.StatusCode != 200 {
		t.Fatalf("query: %d: %s", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var kinds []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		var line map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		for k := range line {
			kinds = append(kinds, k)
		}
	}
	want := []string{"columns", "row", "row", "done"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("stream shape = %v, want %v", kinds, want)
	}
}

func TestTenantIsolation(t *testing.T) {
	_, ts := testServer(t, nil)
	exec(t, ts, "key1", "CREATE TABLE t (a BIGINT)", nil)
	exec(t, ts, "key1", "INSERT INTO t VALUES (1)", nil)
	exec(t, ts, "key2", "CREATE TABLE t (a BIGINT)", nil) // same name, different tenant
	r := exec(t, ts, "key2", "SELECT COUNT(*) FROM t", nil)
	if r.Rows[0][0] != float64(0) {
		t.Fatalf("tenant t2 sees t1's rows: %+v", r.Rows)
	}
}

func TestSessionTransactionAcrossRequests(t *testing.T) {
	_, ts := testServer(t, nil)
	exec(t, ts, "key1", "CREATE TABLE t (a BIGINT)", nil)

	resp, body := do(t, ts, "POST", "/v1/sessions", "key1", nil)
	wantStatus(t, resp, body, 200, "")
	var sess map[string]string
	json.Unmarshal(body, &sess)
	id := sess["session"]
	if id == "" {
		t.Fatal("no session id")
	}
	in := map[string]any{"session": id}

	if r := exec(t, ts, "key1", "BEGIN", in); !r.InTxn {
		t.Fatal("BEGIN did not open a transaction")
	}
	exec(t, ts, "key1", "INSERT INTO t VALUES (42)", in)

	// A stateless request (fresh snapshot) must not see the uncommitted row.
	if r := exec(t, ts, "key1", "SELECT COUNT(*) FROM t", nil); r.Rows[0][0] != float64(0) {
		t.Fatalf("uncommitted row visible outside the transaction: %+v", r.Rows)
	}
	// The session itself sees its own write.
	if r := exec(t, ts, "key1", "SELECT COUNT(*) FROM t", in); r.Rows[0][0] != float64(1) {
		t.Fatalf("own write invisible in transaction: %+v", r.Rows)
	}

	if r := exec(t, ts, "key1", "COMMIT", in); r.InTxn {
		t.Fatal("still in txn after COMMIT")
	}
	if r := exec(t, ts, "key1", "SELECT COUNT(*) FROM t", nil); r.Rows[0][0] != float64(1) {
		t.Fatalf("committed row invisible: %+v", r.Rows)
	}

	// Session delete is idempotent-ish: second delete is 410.
	resp, _ = do(t, ts, "DELETE", "/v1/sessions/"+id, "key1", nil)
	if resp.StatusCode != 204 {
		t.Fatalf("delete session: %d", resp.StatusCode)
	}
	resp, body = do(t, ts, "DELETE", "/v1/sessions/"+id, "key1", nil)
	wantStatus(t, resp, body, 410, "session_gone")
}

func TestSessionTenantScoped(t *testing.T) {
	_, ts := testServer(t, nil)
	_, body := do(t, ts, "POST", "/v1/sessions", "key1", nil)
	var sess map[string]string
	json.Unmarshal(body, &sess)
	// Another tenant's key cannot use the session.
	resp, body := do(t, ts, "POST", "/v1/exec", "key2",
		map[string]any{"sql": "SELECT 1", "session": sess["session"]})
	wantStatus(t, resp, body, 410, "session_gone")
}

func TestPreparedArgs(t *testing.T) {
	_, ts := testServer(t, nil)
	exec(t, ts, "key1", "CREATE TABLE t (a BIGINT, s VARCHAR, d DATE)", nil)

	_, body := do(t, ts, "POST", "/v1/sessions", "key1", nil)
	var sess map[string]string
	json.Unmarshal(body, &sess)
	in := func(args ...any) map[string]any {
		return map[string]any{"session": sess["session"], "args": args}
	}

	// Same statement text twice through one session: second run reuses the
	// cached plan (correctness is what we can observe here).
	for i := 1; i <= 2; i++ {
		exec(t, ts, "key1", "INSERT INTO t VALUES (?, ?, ?)",
			in(i, fmt.Sprintf("s%d", i), "2024-01-0"+fmt.Sprint(i)))
	}
	r := exec(t, ts, "key1", "SELECT s FROM t WHERE a = ?", in(2))
	if len(r.Rows) != 1 || r.Rows[0][0] != "s2" {
		t.Fatalf("parameterized select: %+v", r.Rows)
	}

	// Streaming with args.
	resp, out := do(t, ts, "POST", "/v1/query", "key1",
		map[string]any{"sql": "SELECT a FROM t WHERE a >= ?", "session": sess["session"], "args": []any{1}})
	if resp.StatusCode != 200 || strings.Count(string(out), `"row"`) != 2 {
		t.Fatalf("streaming with args: %d %s", resp.StatusCode, out)
	}

	// Arity mismatch is a 400.
	resp, out = do(t, ts, "POST", "/v1/exec", "key1",
		map[string]any{"sql": "SELECT a FROM t WHERE a = ?", "args": []any{}})
	if resp.StatusCode == 200 {
		t.Fatalf("arity mismatch accepted: %s", out)
	}
}

func TestAdmissionShed429(t *testing.T) {
	srv, ts := testServer(t, func(c *Config) {
		c.Limits = broker.Limits{PerTenant: 1, QueueDepth: 0}
	})
	exec(t, ts, "key1", "CREATE TABLE t (a BIGINT)", nil)

	// Hold t1's only slot, then any statement for t1 sheds with a typed 429
	// while t2 is unaffected (per-tenant limits).
	release, err := srv.Broker().Admit(context.Background(), "t1")
	if err != nil {
		t.Fatal(err)
	}
	resp, body := do(t, ts, "POST", "/v1/exec", "key1", map[string]any{"sql": "SELECT 1"})
	wantStatus(t, resp, body, 429, "overloaded")
	resp, body = do(t, ts, "POST", "/v1/query", "key1", map[string]any{"sql": "SELECT 1"})
	wantStatus(t, resp, body, 429, "overloaded")
	exec(t, ts, "key2", "CREATE TABLE u (a BIGINT)", nil) // t2 unaffected
	release()
	exec(t, ts, "key1", "SELECT COUNT(*) FROM t", nil) // slot free again

	// Shed counter is exposed per tenant.
	_, metricsBody := do(t, ts, "GET", "/metrics", "", nil)
	if !strings.Contains(string(metricsBody), `apollod_queries_shed_total{tenant="t1"} 2`) {
		t.Fatalf("metrics missing per-tenant shed counter:\n%s", metricsBody)
	}
}

func TestWriteConflict409(t *testing.T) {
	_, ts := testServer(t, nil)
	exec(t, ts, "key1", "CREATE TABLE t (a BIGINT, v BIGINT)", nil)
	exec(t, ts, "key1", "INSERT INTO t VALUES (1, 0)", nil)

	mkSession := func() map[string]any {
		_, body := do(t, ts, "POST", "/v1/sessions", "key1", nil)
		var sess map[string]string
		json.Unmarshal(body, &sess)
		return map[string]any{"session": sess["session"]}
	}
	s1, s2 := mkSession(), mkSession()
	exec(t, ts, "key1", "BEGIN", s1)
	exec(t, ts, "key1", "BEGIN", s2)
	exec(t, ts, "key1", "UPDATE t SET v = 1 WHERE a = 1", s1)
	resp, body := do(t, ts, "POST", "/v1/exec", "key1",
		map[string]any{"sql": "UPDATE t SET v = 2 WHERE a = 1", "session": s2["session"]})
	wantStatus(t, resp, body, 409, "write_conflict")
}

// newSession opens a server-side session on tenant t1 and returns its id.
func newSession(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, body := do(t, ts, "POST", "/v1/sessions", "key1", nil)
	wantStatus(t, resp, body, 200, "")
	var sess map[string]string
	json.Unmarshal(body, &sess)
	return sess["session"]
}

// The reaper rolls back a transaction idle past IdleTxnTimeout: not on the
// sweep at exactly the timeout, but on the next.
func TestIdleTransactionReaped(t *testing.T) {
	clk := new(sched.Manual)
	const timeout = 40 * time.Millisecond
	srv, ts := testServerAt(t, func(c *Config) { c.IdleTxnTimeout = timeout }, clk.Now)
	exec(t, ts, "key1", "CREATE TABLE t (a BIGINT)", nil)
	id := newSession(t, ts)
	in := map[string]any{"session": id}
	exec(t, ts, "key1", "BEGIN", in)
	exec(t, ts, "key1", "INSERT INTO t VALUES (1)", in)

	clk.Advance(timeout)
	srv.sched.Settle()
	if srv.sessions.get(id) == nil {
		t.Fatal("transaction reaped at exactly its idle timeout")
	}
	clk.Advance(tenant.SweepPeriod(timeout))
	srv.sched.Settle()
	if srv.sessions.get(id) != nil {
		t.Fatal("transaction idle past its timeout survived a sweep")
	}
	resp, body := do(t, ts, "POST", "/v1/exec", "key1",
		map[string]any{"sql": "SELECT COUNT(*) FROM t", "session": id})
	wantStatus(t, resp, body, 410, "session_gone")
	// The transaction's write was rolled back.
	if r := exec(t, ts, "key1", "SELECT COUNT(*) FROM t", nil); r.Rows[0][0] != float64(0) {
		t.Fatalf("reaped transaction's write survived: %+v", r.Rows)
	}
}

// A session with no transaction is reaped once idle past
// IdleSessionTimeout.
func TestIdleSessionReaped(t *testing.T) {
	clk := new(sched.Manual)
	const timeout = 40 * time.Millisecond
	srv, ts := testServerAt(t, func(c *Config) {
		c.IdleTxnTimeout = -1
		c.IdleSessionTimeout = timeout
	}, clk.Now)
	id := newSession(t, ts)
	clk.Advance(timeout)
	srv.sched.Settle()
	if srv.sessions.get(id) == nil {
		t.Fatal("session reaped at exactly its idle timeout")
	}
	clk.Advance(tenant.SweepPeriod(timeout))
	srv.sched.Settle()
	if srv.sessions.get(id) != nil {
		t.Fatal("session idle past its timeout survived a sweep")
	}
	resp, body := do(t, ts, "DELETE", "/v1/sessions/"+id, "key1", nil)
	wantStatus(t, resp, body, 410, "session_gone")
}

// A session whose lock is held (a statement in flight) survives sweeps past
// its deadline, and the first sweep after it is released reaps it.
func TestBusySessionOutlivesDeadline(t *testing.T) {
	clk := new(sched.Manual)
	const timeout = 40 * time.Millisecond
	srv, ts := testServerAt(t, func(c *Config) { c.IdleSessionTimeout = timeout }, clk.Now)
	id := newSession(t, ts)
	ls := srv.sessions.get(id)
	ls.mu.Lock()
	clk.Advance(10 * timeout)
	srv.sched.Settle()
	if srv.sessions.get(id) == nil || ls.closed {
		ls.mu.Unlock()
		t.Fatal("reaper tore down a session mid-statement")
	}
	ls.mu.Unlock()
	clk.Advance(tenant.SweepPeriod(timeout))
	srv.sched.Settle()
	if srv.sessions.get(id) != nil {
		t.Fatal("released session past its deadline survived the next sweep")
	}
}

// moduleGoroutines counts the goroutines running this module's code, the
// caller's own excepted. Goroutines of earlier tests' HTTP servers and
// clients wind down in the background, so runtime.NumGoroutine would blur
// the count.
func moduleGoroutines() int {
	buf := make([]byte, 1<<16)
	for n := runtime.Stack(buf, true); n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if moduleFrame.MatchString(g) {
			count++
		}
	}
	return count
}

var moduleFrame = regexp.MustCompile(`(?m)^apollo[./]`)

// A server with the session reaper and the tenant janitor on and no tenant
// open runs one background goroutine, its scheduler's, and none once
// closed.
func TestServerBackgroundGoroutines(t *testing.T) {
	// atMost yields until at most want goroutines are left, giving the
	// one Close has just released the moment it needs to exit.
	atMost := func(want int) int {
		n := moduleGoroutines()
		for i := 0; i < 1000 && n > want; i++ {
			runtime.Gosched()
			n = moduleGoroutines()
		}
		return n
	}
	base := atMost(0)
	srv, err := New(Config{
		Root:              t.TempDir(),
		Tenants:           map[string]string{"t1": "key1"},
		DB:                apollo.DefaultConfig(),
		IdleTenantTimeout: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := moduleGoroutines() - base; n != 1 {
		t.Errorf("idle server runs %d background goroutines, want 1", n)
	}
	srv.Close()
	if n := atMost(base); n != base {
		t.Fatalf("%d module goroutines after Close, %d before New", n, base)
	}
}

func TestExplain(t *testing.T) {
	_, ts := testServer(t, nil)
	exec(t, ts, "key1", "CREATE TABLE t (a BIGINT)", nil)
	resp, body := do(t, ts, "POST", "/v1/explain", "key1", map[string]any{"sql": "SELECT COUNT(*) FROM t"})
	wantStatus(t, resp, body, 200, "")
	var out map[string]string
	json.Unmarshal(body, &out)
	if out["plan"] == "" {
		t.Fatalf("no plan text: %s", body)
	}
}

func TestBadSQLIs400(t *testing.T) {
	_, ts := testServer(t, nil)
	resp, body := do(t, ts, "POST", "/v1/exec", "key1", map[string]any{"sql": "SELEKT 1"})
	wantStatus(t, resp, body, 400, "sql")
}

func TestSharedCacheBudgetAcrossTenants(t *testing.T) {
	srv, ts := testServer(t, func(c *Config) { c.CacheBytes = 1 << 20 })
	exec(t, ts, "key1", "CREATE TABLE t (a BIGINT)", nil)
	exec(t, ts, "key2", "CREATE TABLE t (a BIGINT)", nil)
	if got := srv.Broker().Cache.Cap(); got != 1<<20 {
		t.Fatalf("budget cap = %d", got)
	}
	// Both tenants' stores attached to the same budget: the used counter is
	// process-wide (exact value depends on caching; just verify it is bounded).
	if used := srv.Broker().Cache.Used(); used < 0 || used > 1<<20 {
		t.Fatalf("budget used = %d", used)
	}
}

// Package client is a Go client for the apollod wire API: sessions, exec,
// streaming queries, explain. It is what cssql's -url mode and the serve
// smoke test drive the server with; third parties can use it as a reference
// implementation of the protocol.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// Client talks to one apollod server with one tenant's API key. Methods are
// safe for concurrent use; the optional server-side session is not (one
// statement at a time, like any SQL connection).
type Client struct {
	base    string
	key     string
	http    *http.Client
	session string
}

// New creates a client for the server at base (e.g. "http://localhost:8329")
// authenticating with the tenant API key.
func New(base, key string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), key: key, http: &http.Client{}}
}

// Error is a typed server error (the wire's {"error": {...}} body).
type Error struct {
	Status  int    // HTTP status, 0 for in-band stream errors
	Code    string // "overloaded", "write_conflict", "session_gone", ...
	Message string
}

func (e *Error) Error() string {
	return fmt.Sprintf("apollod: %s (%s)", e.Message, e.Code)
}

// Overloaded reports whether the error is an admission-control shed; the
// request may be retried after backoff.
func (e *Error) Overloaded() bool { return e.Code == "overloaded" }

// Result is one statement's outcome.
type Result struct {
	Columns   []string `json:"columns"`
	Rows      [][]any  `json:"rows"`
	Affected  int      `json:"affected"`
	Message   string   `json:"message"`
	InTxn     bool     `json:"in_txn"`
	ElapsedMs float64  `json:"elapsed_ms"`
}

type wireErrBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func (c *Client) post(ctx context.Context, path string, body any) (*http.Response, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, "POST", c.base+path, &buf)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.key)
	req.Header.Set("Content-Type", "application/json")
	return c.http.Do(req)
}

// decodeError turns a non-200 response into a typed *Error.
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var eb wireErrBody
	if json.Unmarshal(raw, &eb) == nil && eb.Error.Code != "" {
		return &Error{Status: resp.StatusCode, Code: eb.Error.Code, Message: eb.Error.Message}
	}
	return &Error{Status: resp.StatusCode, Code: "http", Message: strings.TrimSpace(string(raw))}
}

// OpenSession creates a server-side session; subsequent statements run on it
// (BEGIN/COMMIT/ROLLBACK state persists across requests until CloseSession).
func (c *Client) OpenSession(ctx context.Context) error {
	resp, err := c.post(ctx, "/v1/sessions", nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return decodeError(resp)
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	c.session = out["session"]
	return nil
}

// CloseSession releases the server-side session, rolling back any open
// transaction. No-op without a session.
func (c *Client) CloseSession(ctx context.Context) error {
	if c.session == "" {
		return nil
	}
	req, err := http.NewRequestWithContext(ctx, "DELETE", c.base+"/v1/sessions/"+c.session, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+c.key)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	c.session = ""
	return nil
}

// stmtBody builds the shared request body.
func (c *Client) stmtBody(sql string, args []any) map[string]any {
	body := map[string]any{"sql": sql}
	if len(args) > 0 {
		body["args"] = args
	}
	if c.session != "" {
		body["session"] = c.session
	}
	return body
}

// Exec runs one statement and returns the materialized result. args fill `?`
// placeholders in order.
func (c *Client) Exec(ctx context.Context, sql string, args ...any) (*Result, error) {
	resp, err := c.post(ctx, "/v1/exec", c.stmtBody(sql, args))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != 200 {
		return nil, decodeError(resp)
	}
	defer resp.Body.Close()
	var out Result
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Column describes one result column of a streamed query.
type Column struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// QueryStream drives a streaming query: onColumns runs once when the schema
// line arrives, onRow once per row. Either callback may return an error to
// abort. Returns the terminal summary.
func (c *Client) QueryStream(ctx context.Context, sql string, args []any,
	onColumns func([]Column) error, onRow func([]any) error) (*Result, error) {
	resp, err := c.post(ctx, "/v1/query", c.stmtBody(sql, args))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != 200 {
		return nil, decodeError(resp)
	}
	defer resp.Body.Close()

	type line struct {
		Columns []Column        `json:"columns"`
		Row     []any           `json:"row"`
		Done    json.RawMessage `json:"done"`
		Error   *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("apollod: bad stream line %q: %w", sc.Text(), err)
		}
		switch {
		case l.Error != nil:
			return nil, &Error{Code: l.Error.Code, Message: l.Error.Message}
		case l.Done != nil:
			var res struct {
				Rows      int64   `json:"rows"`
				Affected  int     `json:"affected"`
				Message   string  `json:"message"`
				InTxn     bool    `json:"in_txn"`
				ElapsedMs float64 `json:"elapsed_ms"`
			}
			if err := json.Unmarshal(l.Done, &res); err != nil {
				return nil, err
			}
			return &Result{Affected: res.Affected, Message: res.Message,
				InTxn: res.InTxn, ElapsedMs: res.ElapsedMs}, nil
		case l.Columns != nil:
			if onColumns != nil {
				if err := onColumns(l.Columns); err != nil {
					return nil, err
				}
			}
		case l.Row != nil:
			if onRow != nil {
				if err := onRow(l.Row); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("apollod: stream ended without a done line")
}

// LoadResult is /v1/load's response: counters for the two ingest paths
// and the dead-lettered rows.
// A partial failure carries both the error and whatever loaded before it.
type LoadResult struct {
	RowsLoaded  int     `json:"rows_loaded"`
	RowsDirect  int     `json:"rows_direct"`
	RowsDelta   int     `json:"rows_delta"`
	Groups      int     `json:"groups"`
	Retries     int     `json:"retries"`
	ElapsedMs   float64 `json:"elapsed_ms"`
	DeadLetters []struct {
		Line   int    `json:"line"`
		Reason string `json:"reason"`
	} `json:"dead_letters,omitempty"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error,omitempty"`
}

// Load streams body into table through /v1/load. format is "csv" or
// "binary" ("" = csv); params carries optional query options (header,
// delimiter, batch_rows, max_dead_letters). The result is non-nil whenever
// the server produced one, even alongside an error, so callers can inspect
// partial progress and dead letters.
func (c *Client) Load(ctx context.Context, table, format string, body io.Reader, params map[string]string) (*LoadResult, error) {
	q := url.Values{"table": {table}}
	if format != "" {
		q.Set("format", format)
	}
	for k, v := range params {
		q.Set(k, v)
	}
	req, err := http.NewRequestWithContext(ctx, "POST", c.base+"/v1/load?"+q.Encode(), body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.key)
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out LoadResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		if resp.StatusCode != 200 {
			return nil, &Error{Status: resp.StatusCode, Code: "http", Message: resp.Status}
		}
		return nil, err
	}
	if out.Error != nil {
		return &out, &Error{Status: resp.StatusCode, Code: out.Error.Code, Message: out.Error.Message}
	}
	if resp.StatusCode != 200 {
		return &out, &Error{Status: resp.StatusCode, Code: "http", Message: resp.Status}
	}
	return &out, nil
}

// Explain returns the plan text for a statement.
func (c *Client) Explain(ctx context.Context, sql string, analyze bool) (string, error) {
	body := map[string]any{"sql": sql, "analyze": analyze}
	if c.session != "" {
		body["session"] = c.session
	}
	resp, err := c.post(ctx, "/v1/explain", body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != 200 {
		return "", decodeError(resp)
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	return out["plan"], nil
}

// Metrics fetches the server's Prometheus exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return string(raw), err
}

// InSession reports whether a server-side session is open.
func (c *Client) InSession() bool { return c.session != "" }

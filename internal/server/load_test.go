package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"apollo/internal/sqltypes"
)

type countFlusher struct{ n int }

func (f *countFlusher) Flush() { f.n++ }

// TestStreamSinkFlushesOnInterval pins the NDJSON pacing contract: a slow
// producer (rows trickling out far below the 256-row threshold) still
// reaches the wire at least once per flush interval, while a fast producer
// is batched — no per-row flush until the row-count threshold fires.
func TestStreamSinkFlushesOnInterval(t *testing.T) {
	f := &countFlusher{}
	k := &streamSink{flush: f, enc: json.NewEncoder(io.Discard),
		interval: 10 * time.Millisecond, last: time.Now()}
	row := sqltypes.Row{sqltypes.NewInt(1)}

	// Three rows, each arriving after the interval has elapsed: each must
	// flush immediately instead of waiting for 256 friends.
	for i := 0; i < 3; i++ {
		time.Sleep(15 * time.Millisecond)
		if err := k.Row(row); err != nil {
			t.Fatal(err)
		}
	}
	if f.n != 3 {
		t.Fatalf("3 slow rows flushed %d times, want one flush per row", f.n)
	}

	// A fast burst under the interval stays buffered...
	k.last = time.Now()
	before := f.n
	for i := 0; i < 10; i++ {
		if err := k.Row(row); err != nil {
			t.Fatal(err)
		}
	}
	if f.n != before {
		t.Fatalf("fast burst flushed %d extra times, want buffering", f.n-before)
	}
	// ...until the row-count threshold fires exactly once.
	for i := 0; i < flushEvery; i++ {
		if err := k.Row(row); err != nil {
			t.Fatal(err)
		}
	}
	if f.n != before+1 {
		t.Fatalf("row-count threshold flushed %d times, want 1", f.n-before)
	}
}

// postLoad streams body to /v1/load and decodes the response.
func postLoad(t *testing.T, ts *httptest.Server, key, params string, body io.Reader) (*http.Response, loadResponse) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/load?"+params, body)
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
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var out loadResponse
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("bad load response %s: %v", raw, err)
		}
	}
	return resp, out
}

func TestLoadEndpoint(t *testing.T) {
	_, ts := testServer(t, nil)
	exec(t, ts, "key1", "CREATE TABLE bl (id BIGINT, v VARCHAR) WITH (rowgroup_size=128, bulk_threshold=64)", nil)

	var sb strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "%d,v-%d\n", i, i)
	}
	resp, out := postLoad(t, ts, "key1", "table=bl&batch_rows=128", strings.NewReader(sb.String()))
	if resp.StatusCode != 200 || out.Error != nil {
		t.Fatalf("load: HTTP %d, error %+v", resp.StatusCode, out.Error)
	}
	if out.RowsLoaded != 300 || out.RowsDirect != 256 || out.Groups != 2 || out.RowsDelta != 44 {
		t.Fatalf("load split wrong: %+v (want 300 loaded = 256 direct in 2 groups + 44 delta)", out)
	}
	if len(out.DeadLetters) != 0 {
		t.Fatalf("want no dead letters, got %+v", out)
	}

	r := exec(t, ts, "key1", "SELECT COUNT(*) FROM bl", nil)
	if fmt.Sprint(r.Rows[0][0]) != "300" {
		t.Fatalf("COUNT(*) after load = %v, want 300", r.Rows[0][0])
	}

	// The ingest counter is on the shared exposition.
	mresp, mbody := do(t, ts, "GET", "/metrics", "", nil)
	if mresp.StatusCode != 200 || !strings.Contains(string(mbody), "apollod_rows_loaded_total 300") {
		t.Fatalf("metrics missing rows-loaded counter: HTTP %d", mresp.StatusCode)
	}
}

func TestLoadEndpointDeadLettersInBand(t *testing.T) {
	_, ts := testServer(t, nil)
	exec(t, ts, "key1", "CREATE TABLE dl (id BIGINT, v VARCHAR)", nil)

	body := "1,ok\nnot-a-number,bad\n2,ok\n"
	resp, out := postLoad(t, ts, "key1", "table=dl", strings.NewReader(body))
	if resp.StatusCode != 200 || out.Error != nil {
		t.Fatalf("load: HTTP %d, error %+v", resp.StatusCode, out.Error)
	}
	if out.RowsLoaded != 2 || len(out.DeadLetters) != 1 || out.DeadLetters[0].Line != 2 {
		t.Fatalf("dead-letter accounting wrong: %+v", out)
	}

	// max_dead_letters=0 means the first malformed row aborts — but the
	// response still carries partial progress alongside the typed error.
	resp, out = postLoad(t, ts, "key1", "table=dl&max_dead_letters=0", strings.NewReader(body))
	if resp.StatusCode == 200 || out.Error == nil {
		t.Fatalf("zero-tolerance load did not fail: HTTP %d, %+v", resp.StatusCode, out)
	}
	if out.RowsLoaded != 0 && out.RowsLoaded != 1 {
		t.Fatalf("partial progress should be 0 or 1 rows, got %d", out.RowsLoaded)
	}
}

func TestLoadEndpointValidation(t *testing.T) {
	_, ts := testServer(t, nil)

	// table is required.
	resp, _ := postLoad(t, ts, "key1", "", strings.NewReader("1\n"))
	if resp.StatusCode != 400 {
		t.Fatalf("missing table: HTTP %d, want 400", resp.StatusCode)
	}
	// Unknown table is a client error, not a 500.
	resp, out := postLoad(t, ts, "key1", "table=nope", strings.NewReader("1\n"))
	if resp.StatusCode != 400 || out.Error == nil {
		t.Fatalf("unknown table: HTTP %d %+v, want 400 with in-band error", resp.StatusCode, out.Error)
	}
	// Auth applies like any data endpoint.
	resp, _ = postLoad(t, ts, "", "table=nope", strings.NewReader("1\n"))
	if resp.StatusCode != 401 {
		t.Fatalf("unauthenticated load: HTTP %d, want 401", resp.StatusCode)
	}
	// Tenants are isolated: t2 cannot see t1's table.
	exec(t, ts, "key1", "CREATE TABLE mine (id BIGINT)", nil)
	resp, _ = postLoad(t, ts, "key2", "table=mine", strings.NewReader("1\n"))
	if resp.StatusCode == 200 {
		t.Fatal("tenant t2 loaded into t1's table")
	}
}

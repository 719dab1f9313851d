package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"apollo"
)

// defaultLoadQueueDepth is the bounded decode→compress channel when
// Config.LoadQueueDepth is unset.
const defaultLoadQueueDepth = 1024

// loadResponse is /v1/load's body. Dead letters always travel in-band with
// the counters; when the load aborts partway, the typed error rides
// alongside whatever was loaded so the client knows both what failed and
// what made it in.
type loadResponse struct {
	RowsLoaded  int                     `json:"rows_loaded"`
	RowsDirect  int                     `json:"rows_direct"`
	RowsDelta   int                     `json:"rows_delta"`
	Groups      int                     `json:"groups"`
	Retries     int                     `json:"retries"`
	DeadLetters []apollo.LoadDeadLetter `json:"dead_letters,omitempty"`
	ElapsedMs   float64                 `json:"elapsed_ms"`
	Error       *wireError              `json:"error,omitempty"`
}

// handleLoad is the streaming bulk-ingest endpoint: the request body is the
// raw CSV or binary stream, and the target/format/options ride as query
// parameters (table is required; format, header, delimiter, batch_rows,
// max_dead_letters are optional). The load is admitted through the broker
// like any statement, the broker's per-query grant caps the buffered batch,
// and a bounded row channel between the decoder and the compressor turns a
// slow compressor into TCP backpressure on the client.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request, tenantName string) {
	q := r.URL.Query()
	tableName := q.Get("table")
	if tableName == "" {
		writeError(w, fmt.Errorf("missing required query parameter \"table\""))
		return
	}
	var delim rune
	if d := q.Get("delimiter"); d != "" {
		rs := []rune(d)
		if len(rs) != 1 {
			writeError(w, fmt.Errorf("delimiter must be one character, got %q", d))
			return
		}
		delim = rs[0]
	}
	batchRows, err := intParam(q.Get("batch_rows"))
	if err != nil {
		writeError(w, fmt.Errorf("bad batch_rows: %w", err))
		return
	}
	maxDL, err := intParam(q.Get("max_dead_letters"))
	if err != nil {
		writeError(w, fmt.Errorf("bad max_dead_letters: %w", err))
		return
	}
	if q.Get("max_dead_letters") == "0" {
		maxDL = -1 // explicit zero: first bad row aborts
	}

	release, err := s.brk.Admit(r.Context(), tenantName)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	h, err := s.tenants.Get(r.Context(), tenantName)
	if err != nil {
		writeError(w, err)
		return
	}
	defer h.Release()

	depth := s.cfg.LoadQueueDepth
	if depth <= 0 {
		depth = defaultLoadQueueDepth
	}
	start := time.Now()
	res, lerr := h.DB().Load(r.Context(), apollo.LoadOptions{
		Table:          tableName,
		Format:         q.Get("format"),
		Reader:         r.Body,
		Header:         boolParam(q.Get("header")),
		Delimiter:      delim,
		BatchRows:      batchRows,
		MaxDeadLetters: maxDL,
		QueueDepth:     depth,
		GrantBytes:     s.brk.GrantBytes(),
	})
	out := loadResponse{
		RowsLoaded:  res.RowsLoaded,
		RowsDirect:  res.RowsDirect,
		RowsDelta:   res.RowsDelta,
		Groups:      res.Groups,
		Retries:     res.Retries,
		DeadLetters: res.DeadLetters,
		ElapsedMs:   float64(time.Since(start).Microseconds()) / 1000,
	}
	s.rowsLoaded.Add(int64(res.RowsLoaded))
	status := http.StatusOK
	if lerr != nil {
		var code, tn string
		status, code, tn = classify(lerr)
		out.Error = &wireError{Code: code, Tenant: tn, Message: lerr.Error()}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(out)
}

func intParam(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.Atoi(s)
}

func boolParam(s string) bool {
	return s == "1" || s == "true" || s == "yes"
}

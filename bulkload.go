package apollo

import (
	"context"
	"errors"
	"io"
	"os"

	"apollo/internal/load"
	"apollo/internal/sql"
)

// errLoadNoInput rejects a LoadOptions with neither Reader nor Path.
var errLoadNoInput = errors.New("apollo: Load needs a Reader or a Path")

// LoadOptions configures DB.Load, the embedded bulk-ingest API (the same
// pipeline behind SQL COPY and apollod's /v1/load). Exactly one of Reader
// and Path must be set.
type LoadOptions struct {
	// Table is the target table (required).
	Table string
	// Format is "csv" (default) or "binary" (length-prefixed row frames).
	Format string
	// Reader streams the input; Path opens a file instead.
	Reader io.Reader
	Path   string
	// Header skips the first CSV record.
	Header bool
	// Delimiter is the CSV field separator (0 = ',').
	Delimiter rune
	// BatchRows is the batch size: the load cuts a batch every BatchRows
	// rows (0 = the table's row-group size). Batches at or above the
	// table's bulk threshold compress directly into row groups; smaller
	// ones fall back to batched delta inserts.
	BatchRows int
	// MaxDeadLetters caps tolerated malformed rows (0 = default 1000,
	// negative = first bad row aborts). Rejected rows come back in
	// LoadResult.DeadLetters.
	MaxDeadLetters int
	// MaxRetries bounds per-batch retries on transient storage faults.
	MaxRetries int
	// QueueDepth > 0 pipelines decoding from compression through a bounded
	// channel of that many rows (streaming-ingest backpressure; the producer
	// blocks when the loader falls behind).
	QueueDepth int
	// GrantBytes caps the loader's buffered batch memory (0 inherits the
	// DB's MemoryBudget); a full grant flushes the batch early.
	GrantBytes int64
}

// LoadResult reports one bulk load: row counts per path (direct vs delta
// fallback), published groups, retries, the batch size the load cut at,
// and the dead-lettered input rows.
type LoadResult = load.Result

// LoadDeadLetter is one rejected input row.
type LoadDeadLetter = load.DeadLetter

// Load bulk-loads rows into a table (paper §4.2): batches at or above the
// table's bulk threshold bypass the delta store and compress directly into
// row groups, each published as one atomic WAL record so recovery replays
// whole groups or none. The result is non-nil even on error, carrying
// partial progress and dead letters.
func (db *DB) Load(ctx context.Context, opts LoadOptions) (*LoadResult, error) {
	if db.closed.Load() {
		return &LoadResult{}, ErrClosed
	}
	r := opts.Reader
	if r == nil && opts.Path != "" {
		f, err := os.Open(opts.Path)
		if err != nil {
			return &LoadResult{}, err
		}
		defer f.Close()
		r = f
	}
	if r == nil {
		return &LoadResult{}, errLoadNoInput
	}
	return db.engine.Load(ctx, opts.Table, r, sql.LoadSpec{
		Format:         opts.Format,
		Header:         opts.Header,
		Delim:          opts.Delimiter,
		BatchRows:      opts.BatchRows,
		MaxDeadLetters: opts.MaxDeadLetters,
		MaxRetries:     opts.MaxRetries,
		QueueDepth:     opts.QueueDepth,
		GrantBytes:     opts.GrantBytes,
	})
}

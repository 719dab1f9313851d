// Package load implements the bulk-load pipeline (paper §4.2): decoders
// stream rows out of CSV or length-prefixed binary input, the loader cuts
// them into batches of a fixed size (earlier under memory-grant pressure),
// and the table's BulkLoad lands each batch, which compresses it directly
// into a row group (at or above the table's bulk threshold, one atomic WAL
// group publish) or trickles it into the delta store as one batch.
// Malformed input rows are dead-lettered up to a cap instead of aborting
// the load.
package load

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"apollo/internal/sqltypes"
	"apollo/internal/storage"
)

// Sink is the table-side surface the loader drives; *table.Table satisfies
// it. BulkLoad decides direct vs delta: a batch at or above the table's bulk
// threshold publishes as one compressed row group, a smaller one trickles
// into the delta store with one durability wait for the whole batch. It
// returns the number of groups published.
type Sink interface {
	BulkLoad(ctx context.Context, rows []sqltypes.Row) (int, error)
}

// RowReader produces decoded rows. Next returns io.EOF at clean end of
// input, a *RowError for a malformed-but-recoverable row (the reader stays
// usable and the loader dead-letters it), and any other error for a fatal
// condition (lost framing, I/O failure) that aborts the load.
type RowReader interface {
	Next() (sqltypes.Row, error)
}

// RowError marks one undecodable input row. The reader has already skipped
// past it; the loader records it as a dead letter and continues.
type RowError struct {
	Line int // 1-based input row/record number
	Err  error
}

func (e *RowError) Error() string { return fmt.Sprintf("row %d: %v", e.Line, e.Err) }

func (e *RowError) Unwrap() error { return e.Err }

// DeadLetter is one rejected input row, returned in-band with the result.
type DeadLetter struct {
	Line   int    `json:"line"`
	Reason string `json:"reason"`
}

// Result is the outcome of one load.
type Result struct {
	RowsLoaded  int          `json:"rows_loaded"`
	RowsDirect  int          `json:"rows_direct"` // rows compressed straight into row groups
	RowsDelta   int          `json:"rows_delta"`  // rows that fell back to batched delta inserts
	Groups      int          `json:"groups"`      // row groups published by the direct path
	Retries     int          `json:"retries"`     // transient-fault batch retries
	DeadLetters []DeadLetter `json:"dead_letters,omitempty"`
	FinalTarget int          `json:"final_target"` // the batch size the load cut at
}

// DefaultMaxDeadLetters bounds how many malformed rows a load tolerates
// before aborting, when Options.MaxDeadLetters is zero.
const DefaultMaxDeadLetters = 1000

// Options configures a Loader.
type Options struct {
	// RowGroupSize caps a batch (and therefore a published row group).
	// Required > 0.
	RowGroupSize int
	// BulkThreshold is the table's bulk threshold, the floor below which
	// grant pressure never flushes a batch early. <=0 disables early
	// flushes.
	BulkThreshold int
	// BatchRows is the batch size: the loader cuts a batch every BatchRows
	// rows. 0, or more than RowGroupSize, means RowGroupSize.
	BatchRows int
	// MaxDeadLetters caps tolerated malformed rows (0 = DefaultMaxDeadLetters,
	// negative = reject none: the first bad row aborts).
	MaxDeadLetters int
	// MaxRetries bounds per-batch retries on transient storage faults
	// (0 = 3 attempts total).
	MaxRetries int
	// GrantBytes is the loader's memory grant: when the buffered batch is
	// estimated at or above it, the batch flushes before BatchRows rows
	// (grant pressure). <=0 = unlimited.
	GrantBytes int64
}

// maxPreallocRows caps the batch buffer a load allocates up front; a larger
// batch grows by append. A whole default batch (1<<20 rows, 24 MiB of row
// headers) would be allocated even for a three-row load.
const maxPreallocRows = 1 << 16

// Loader streams rows from a RowReader into a Sink.
type Loader struct {
	sink Sink
	opts Options
}

// New creates a loader. opts.RowGroupSize must be positive.
func New(sink Sink, opts Options) (*Loader, error) {
	if opts.RowGroupSize <= 0 {
		return nil, fmt.Errorf("load: RowGroupSize must be positive (got %d)", opts.RowGroupSize)
	}
	if opts.BatchRows <= 0 || opts.BatchRows > opts.RowGroupSize {
		opts.BatchRows = opts.RowGroupSize
	}
	if opts.MaxDeadLetters == 0 {
		opts.MaxDeadLetters = DefaultMaxDeadLetters
	} else if opts.MaxDeadLetters < 0 {
		opts.MaxDeadLetters = 0
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 3
	}
	return &Loader{sink: sink, opts: opts}, nil
}

// Run drains the reader into the sink. It always returns a non-nil Result
// describing whatever was loaded, even alongside an error, so callers can
// surface partial progress and dead letters in-band.
func (l *Loader) Run(ctx context.Context, r RowReader) (*Result, error) {
	res := &Result{FinalTarget: l.opts.BatchRows}
	buf := make([]sqltypes.Row, 0, min(l.opts.BatchRows, maxPreallocRows))
	var bufBytes int64

	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		var groups int
		var err error
		for attempt := 0; ; attempt++ {
			if groups, err = l.sink.BulkLoad(ctx, buf); err == nil {
				break
			}
			// Bounded retry covers transient storage faults. A batch fits in
			// one row group, so a failed one published nothing and running it
			// again cannot duplicate rows.
			if !storage.IsTransient(err) || attempt+1 >= l.opts.MaxRetries {
				return fmt.Errorf("load: flush of %d rows failed: %w", len(buf), err)
			}
			res.Retries++
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(1+attempt) * 5 * time.Millisecond):
			}
		}
		res.RowsLoaded += len(buf)
		if groups > 0 {
			res.RowsDirect += len(buf)
			res.Groups += groups
		} else {
			res.RowsDelta += len(buf)
		}
		buf = buf[:0]
		bufBytes = 0
		return nil
	}

	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		row, err := r.Next()
		if err != nil {
			if err == io.EOF {
				break
			}
			var re *RowError
			if errors.As(err, &re) {
				res.DeadLetters = append(res.DeadLetters, DeadLetter{Line: re.Line, Reason: re.Err.Error()})
				if len(res.DeadLetters) > l.opts.MaxDeadLetters {
					return res, fmt.Errorf("load: aborted after %d malformed rows (cap %d); last: %w",
						len(res.DeadLetters), l.opts.MaxDeadLetters, re)
				}
				continue
			}
			return res, err
		}
		buf = append(buf, row)
		bufBytes += rowBytes(row)
		if len(buf) >= l.opts.BatchRows || l.grantPressure(len(buf), bufBytes) {
			if err := flush(); err != nil {
				return res, err
			}
		}
	}
	return res, flush()
}

// grantPressure reports whether the buffered batch should flush early
// because it has grown to the memory grant. The batch must still be large
// enough for the direct path — flushing below the threshold under pressure
// would silently divert bulk rows into the delta store.
func (l *Loader) grantPressure(bufRows int, bufBytes int64) bool {
	return l.opts.GrantBytes > 0 && bufBytes >= l.opts.GrantBytes &&
		l.opts.BulkThreshold > 0 && bufRows >= l.opts.BulkThreshold
}

// rowBytes estimates a row's in-memory footprint for grant accounting.
func rowBytes(row sqltypes.Row) int64 {
	n := int64(len(row)) * 24 // Value struct overhead, rounded down
	for _, v := range row {
		n += int64(len(v.S))
	}
	return n
}

// Pipelined decouples decoding from compression through a bounded channel:
// a producer goroutine keeps reading rows from r while the loader flushes
// the previous batch. When the channel fills, the producer blocks — for the
// HTTP load endpoint that stops reads from the request body, which is TCP
// backpressure all the way to the client. The producer exits when the input
// ends, a fatal decode error occurs, or ctx is cancelled (so an aborted
// load never leaks the goroutine).
func Pipelined(ctx context.Context, r RowReader, depth int) RowReader {
	if depth < 1 {
		depth = 1
	}
	p := &pipeReader{ch: make(chan pipeItem, depth), ctx: ctx}
	go func() {
		defer close(p.ch)
		for {
			row, err := r.Next()
			select {
			case p.ch <- pipeItem{row: row, err: err}:
			case <-ctx.Done():
				return
			}
			if err != nil {
				var re *RowError
				if errors.As(err, &re) {
					continue // recoverable: keep producing
				}
				return // io.EOF or fatal: done
			}
		}
	}()
	return p
}

type pipeItem struct {
	row sqltypes.Row
	err error
}

type pipeReader struct {
	ch  chan pipeItem
	ctx context.Context
}

func (p *pipeReader) Next() (sqltypes.Row, error) {
	it, ok := <-p.ch
	if !ok {
		// The channel closes after the terminal item was delivered (clean
		// end) or because the producer bailed on cancellation — a closed
		// channel with a live ctx error must not read as a clean EOF.
		if err := p.ctx.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	return it.row, it.err
}

package sql

import (
	"context"
	"fmt"
	"io"
	"os"

	"apollo/internal/load"
	"apollo/internal/txn"
)

// LoadSpec configures Engine.Load: the decode format plus the loader knobs
// the three front ends (COPY, db.Load, /v1/load) expose.
type LoadSpec struct {
	Format         string // "csv" (default) or "binary"
	Header         bool   // CSV: skip the first record
	Delim          rune   // CSV field delimiter; 0 = ','
	BatchRows      int    // pin the batch size; 0 = adaptive controller
	MaxDeadLetters int    // 0 = loader default, <0 = first bad row aborts
	MaxRetries     int    // transient-fault batch retries; 0 = default
	// QueueDepth > 0 pipelines decoding from compression through a bounded
	// channel of that many rows (streaming ingest backpressure).
	QueueDepth int
	// GrantBytes overrides the engine's memory budget as the loader's
	// early-flush grant; 0 inherits PlanOpts.MemoryBudget.
	GrantBytes int64
}

// Load streams rows from r into the named table through the bulk-load
// pipeline: batches at or above the table's bulk threshold compress
// directly into row groups (one atomic WAL publish each), smaller ones fall
// back to batched delta inserts. The returned Result is non-nil even on
// error, carrying partial progress and the dead letters collected so far.
func (e *Engine) Load(ctx context.Context, tableName string, r io.Reader, spec LoadSpec) (*load.Result, error) {
	if e.closed.Load() {
		return &load.Result{}, txn.ErrClosed
	}
	res := &load.Result{}
	err := e.State.Gate(func() (err error) {
		res, err = e.load(ctx, tableName, r, spec)
		return err
	})
	return res, err
}

// load is Load without the degrade gate, for callers already behind it
// (COPY runs inside the statement dispatcher's gate).
func (e *Engine) load(ctx context.Context, tableName string, r io.Reader, spec LoadSpec) (*load.Result, error) {
	t, err := e.Cat.Get(tableName)
	if err != nil {
		return &load.Result{}, err
	}
	var rr load.RowReader
	switch spec.Format {
	case "", "csv":
		rr = load.NewCSVReader(r, t.Schema, load.CSVOptions{Comma: spec.Delim, Header: spec.Header})
	case "binary":
		rr = load.NewBinaryReader(r, t.Schema)
	default:
		return &load.Result{}, fmt.Errorf("sql: unknown load format %q (want csv or binary)", spec.Format)
	}
	grant := spec.GrantBytes
	if grant == 0 {
		grant = e.PlanOpts.MemoryBudget
	}
	ldr, err := load.New(t, load.Options{
		RowGroupSize:   t.Opts.RowGroupSize,
		BulkThreshold:  t.Opts.BulkLoadThreshold,
		BatchRows:      spec.BatchRows,
		MaxDeadLetters: spec.MaxDeadLetters,
		MaxRetries:     spec.MaxRetries,
		GrantBytes:     grant,
	})
	if err != nil {
		return &load.Result{}, err
	}
	if spec.QueueDepth > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel() // unblocks the producer goroutine if the load aborts
		rr = load.Pipelined(ctx, rr, spec.QueueDepth)
	}
	return ldr.Run(ctx, rr)
}

// copyFrom executes COPY table FROM 'path': open the file and run the load
// pipeline over it.
func (e *Engine) copyFrom(ctx context.Context, c *Copy) (*Result, error) {
	f, err := os.Open(c.Path)
	if err != nil {
		return nil, fmt.Errorf("sql: COPY %s: %w", c.Table, err)
	}
	defer f.Close()
	res, err := e.load(ctx, c.Table, f, LoadSpec{
		Format:         c.Format,
		Header:         c.Header,
		Delim:          c.Delim,
		BatchRows:      c.BatchRows,
		MaxDeadLetters: c.MaxDeadLetters,
	})
	if err != nil {
		return nil, fmt.Errorf("sql: COPY %s (after %d rows): %w", c.Table, res.RowsLoaded, err)
	}
	return &Result{
		Affected: res.RowsLoaded,
		Message: fmt.Sprintf("loaded %d rows into %s (%d direct in %d groups, %d delta, %d dead-lettered)",
			res.RowsLoaded, c.Table, res.RowsDirect, res.Groups, res.RowsDelta, len(res.DeadLetters)),
	}, nil
}

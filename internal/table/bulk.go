package table

import (
	"context"

	"apollo/internal/sqltypes"
	"apollo/internal/wal"
)

// prepareRows validates every row before anything is written, then returns
// coerced copies the table may keep.
func (t *Table) prepareRows(rows []sqltypes.Row) ([]sqltypes.Row, error) {
	for _, r := range rows {
		if err := t.CheckRow(r); err != nil {
			return nil, err
		}
	}
	coerced := make([]sqltypes.Row, len(rows))
	for i, r := range rows {
		coerced[i] = t.coerceRow(r)
	}
	return coerced, nil
}

// BulkLoad is the table's one bulk-write rule (§4.2): bulk loads above a
// threshold bypass the delta store and compress directly. Every row is
// validated first, so a bad row writes nothing. Each full RowGroupSize chunk,
// and a trailing remainder at or above BulkLoadThreshold, publishes as one
// compressed row group: one atomic TGroupPublish WAL append whose segment
// blobs are already durable, so recovery replays whole groups or none. A
// smaller remainder trickles into the open delta store as one batch (see
// insertBatch). Returns the number of groups published, also on error: a
// call of at most RowGroupSize rows that fails has published nothing.
func (t *Table) BulkLoad(ctx context.Context, rows []sqltypes.Row) (int, error) {
	rows, err := t.prepareRows(rows)
	if err != nil {
		return 0, err
	}
	direct := len(rows) - len(rows)%t.Opts.RowGroupSize
	if len(rows)-direct >= t.Opts.BulkLoadThreshold {
		direct = len(rows)
	}
	groups := 0
	for i := 0; i < direct; i += t.Opts.RowGroupSize {
		if err := t.compressRows(rows[i:min(i+t.Opts.RowGroupSize, direct)]); err != nil {
			return groups, err
		}
		groups++
	}
	return groups, t.insertBatch(ctx, rows[direct:])
}

// InsertMany trickle-inserts rows into the open delta store as one batch,
// whatever their count: every row is validated first, then they all land
// as insertBatch lands them.
func (t *Table) InsertMany(rows []sqltypes.Row) error {
	rows, err := t.prepareRows(rows)
	if err != nil {
		return err
	}
	return t.insertBatch(context.Background(), rows)
}

// insertBatch trickle-inserts prepared rows as one batch: every row lands in
// the open delta store under a single lock hold and one write context, the
// per-row WAL records are appended without per-record fsyncs, and one
// durability wait at the end covers the whole batch, so an fsync=always
// batch pays one group commit instead of one per row. Under fsync=always the
// call returns only after the batch is on disk; under interval/off the wait
// is skipped, exactly as Append would. ctx bounds only the final durability
// wait: on cancellation the rows are already applied and ride the next
// sync; only the confirmation is abandoned.
func (t *Table) insertBatch(ctx context.Context, rows []sqltypes.Row) error {
	if len(rows) == 0 {
		return nil
	}
	t.mu.Lock()
	wc := t.writeCtxLocked(TxnRef{})
	var target int64
	closedAny := false
	var err error
	for _, row := range rows {
		if t.wal != nil {
			enc := sqltypes.EncodeRow(nil, t.Schema, row)
			rec := &wal.Record{Type: wal.TDeltaInsert, A: uint64(t.open.ID), B: t.open.NextKey(), Payload: enc, Table: t.Name}
			if target, err = t.wal.AppendAsync(rec); err != nil {
				break
			}
		}
		if _, err = t.open.InsertAt(row, wc.ts); err != nil {
			break
		}
		if t.open.Rows() >= t.Opts.RowGroupSize {
			// The close transition is a synchronous append (it gates replay
			// of everything after it); it only fires every RowGroupSize rows.
			if err = t.closeOpenLocked(); err != nil {
				break
			}
			closedAny = true
		}
	}
	t.finishWrite(wc)
	t.mu.Unlock()
	if closedAny {
		t.mover.Load().Kick()
	}
	if err != nil {
		return err
	}
	if t.wal != nil && target > 0 && t.wal.Policy() == wal.FsyncAlways {
		return t.wal.WaitDurable(ctx, target)
	}
	return nil
}

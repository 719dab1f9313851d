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
		if err := t.checkRow(r); err != nil {
			return nil, err
		}
	}
	coerced := make([]sqltypes.Row, len(rows))
	for i, r := range rows {
		coerced[i] = t.coerceRow(r)
	}
	return coerced, nil
}

// BulkLoad loads rows through the bulk path (§4.2): full row groups compress
// directly; a trailing remainder at or above BulkLoadThreshold also
// compresses (as a smaller row group); a remainder below the threshold is
// trickle-inserted into the open delta store as one batch.
func (t *Table) BulkLoad(rows []sqltypes.Row) error {
	rows, err := t.prepareRows(rows)
	if err != nil {
		return err
	}
	direct := len(rows) - len(rows)%t.Opts.RowGroupSize
	if len(rows)-direct >= t.Opts.BulkLoadThreshold {
		direct = len(rows)
	}
	if _, err := t.compressChunks(rows[:direct]); err != nil {
		return err
	}
	return t.insertBatch(context.Background(), rows[direct:])
}

// CompressDirect compresses rows straight into published row groups,
// bypassing the delta store entirely: one group per RowGroupSize chunk, the
// trailing remainder as a smaller final group regardless of the bulk
// threshold (the caller — the load pipeline — decides the direct-vs-delta
// split per batch). Each group is one atomic TGroupPublish WAL append whose
// segment blobs are already durable, so recovery replays whole groups or
// none; a crash mid-publish truncates the torn record and the group is
// simply absent. Returns the number of groups published.
func (t *Table) CompressDirect(rows []sqltypes.Row) (int, error) {
	rows, err := t.prepareRows(rows)
	if err != nil {
		return 0, err
	}
	return t.compressChunks(rows)
}

// compressChunks publishes prepared rows as RowGroupSize groups plus a
// smaller final one, returning the number of groups published.
func (t *Table) compressChunks(rows []sqltypes.Row) (int, error) {
	groups := 0
	for i := 0; i < len(rows); i += t.Opts.RowGroupSize {
		if err := t.compressRows(rows[i:min(i+t.Opts.RowGroupSize, len(rows))]); err != nil {
			return groups, err
		}
		groups++
	}
	return groups, nil
}

// InsertBatch trickle-inserts rows as one batch (the bulk loader's
// below-threshold fallback): every row lands in the open delta store under
// a single lock hold, the per-row WAL records are appended without
// per-record fsyncs, and one durability wait at the end covers the whole
// batch — so an fsync=always load pays one group-commit per batch instead
// of one per row. Durability semantics match Insert: under fsync=always the
// call returns only after the batch is on disk; under interval/off the wait
// is skipped, exactly as Append would. ctx bounds only the final durability
// wait — on cancellation the rows are already applied and ride the next
// sync; only the confirmation is abandoned.
func (t *Table) InsertBatch(ctx context.Context, rows []sqltypes.Row) error {
	rows, err := t.prepareRows(rows)
	if err != nil {
		return err
	}
	return t.insertBatch(ctx, rows)
}

// insertBatch is InsertBatch on prepared rows.
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
		t.kickMover()
	}
	if err != nil {
		return err
	}
	if t.wal != nil && target > 0 && t.wal.Policy() == wal.FsyncAlways {
		return t.wal.WaitDurable(ctx, target)
	}
	return nil
}

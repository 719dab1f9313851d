package table

import (
	"fmt"

	"apollo/internal/colstore"
	"apollo/internal/delta"
	"apollo/internal/sqltypes"
	"apollo/internal/wal"
)

// WAL replay. Recovery calls ReplayRecord for every logged mutation of this
// table, in log order, over either an empty table or a checkpoint image.
// Every handler is idempotent: a fuzzy checkpoint's image may already
// contain the effect of records that follow the checkpoint's replay point,
// so "already applied" must be indistinguishable from "applied now".
// Handlers never log.

// ReplayRecord applies one WAL record to the table.
func (t *Table) ReplayRecord(rec *wal.Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch rec.Type {
	case wal.TDeltaInsert:
		return t.replayInsertLocked(int(rec.A), rec.B, rec.Payload)
	case wal.TDeltaDelete:
		t.replayDeleteLocked(int(rec.A), rec.B)
	case wal.TDeleteSet:
		t.deletes.Delete(int(rec.A), int(rec.B))
	case wal.TDeltaClose:
		t.replayCloseLocked(int(rec.A), int(rec.B))
	case wal.TGroupPublish:
		return t.replayPublishLocked(int(rec.A), rec.Payload)
	case wal.TGroupRetire:
		t.idx.RemoveGroup(int(rec.A))
		t.deletes.DropGroup(int(rec.A))
	case wal.TDeltaDrop:
		t.replayDropLocked(int(rec.A))
	case wal.TTableReset:
		t.replayResetLocked(int(rec.A))
	default:
		return fmt.Errorf("table %s: replay of unexpected record %v", t.Name, rec.Type)
	}
	return nil
}

func (t *Table) replayInsertLocked(deltaID int, key uint64, enc []byte) error {
	s := t.deltaByIDLocked(deltaID)
	if s == nil {
		// The store was consumed by a later durable publish/drop whose effect
		// is already in the image; the row lives (or was deleted) there.
		return nil
	}
	row, _, err := sqltypes.DecodeRow(enc, t.Schema)
	if err != nil {
		return fmt.Errorf("table %s: delta insert %d/%d: %w", t.Name, deltaID, key, err)
	}
	s.RestoreRow(key, row)
	return nil
}

func (t *Table) replayDeleteLocked(deltaID int, key uint64) {
	if s := t.deltaByIDLocked(deltaID); s != nil {
		s.RestoreDelete(key)
	}
}

// replayCloseLocked moves store closedID to the closed queue and opens a
// fresh store with id newID.
func (t *Table) replayCloseLocked(closedID, newID int) {
	if t.open == nil || t.open.ID != closedID {
		// Image already reflects the close (the open store has a later id).
		return
	}
	t.open.SetState(delta.Closed)
	t.closed = append(t.closed, t.open)
	if newID > t.deltaID {
		t.deltaID = newID
	}
	t.open = delta.NewStore(newID)
}

// replayPublishLocked installs a published row group and consumes its source
// delta store. The group's segment blobs are already present (write-through
// backing put them on disk before the record was logged).
func (t *Table) replayPublishLocked(consumed int, payload []byte) error {
	p, err := colstore.UnmarshalPublish(payload)
	if err != nil {
		return fmt.Errorf("table %s: %w", t.Name, err)
	}
	for _, da := range p.Dicts {
		d := t.idx.Primary(da.Col)
		if d == nil {
			return fmt.Errorf("table %s: dict append for non-string column %d", t.Name, da.Col)
		}
		// Add dedups by value, so entries the checkpoint image already holds
		// are no-ops and fresh entries get the next ids — which match the
		// original assignment because publishes replay in build order.
		for _, v := range da.Vals {
			d.Add(v)
		}
	}
	t.idx.RestoreGroup(p.Group)
	// Deletes that arrived while the mover compressed ride inside the publish
	// record (one atomic append); set their bitmap entries now that the group
	// exists. Idempotent: setting an already-set bit is a no-op.
	for _, tid := range p.Deletes {
		t.deletes.Delete(p.Group.ID, tid)
	}
	if consumed != 0 {
		t.replayDropLocked(consumed)
	}
	return nil
}

// replayDropLocked removes a delta store wholesale (consumed by a publish,
// or dropped empty by the mover).
func (t *Table) replayDropLocked(deltaID int) {
	for i, s := range t.closed {
		if s.ID == deltaID {
			t.closed = append(t.closed[:i], t.closed[i+1:]...)
			return
		}
	}
	delete(t.moving, deltaID)
}

// replayResetLocked clears all delta state after a rebuild, opening a fresh
// store with the given id.
func (t *Table) replayResetLocked(newOpenID int) {
	if t.open != nil && t.open.ID >= newOpenID {
		// Image already reflects the reset.
		return
	}
	if newOpenID > t.deltaID {
		t.deltaID = newOpenID
	}
	t.open = delta.NewStore(newOpenID)
	t.closed = nil
	t.moving = make(map[int]*delta.Store)
}

// FinishRecovery normalizes post-replay state: any store left in Moving
// (crash mid-move, publish never logged) returns to Closed so the tuple
// mover can retry it; transactions still holding provisional effects (their
// TCommit never made the durable log) roll back; and with no snapshots alive
// at recovery, everything left settles.
func (t *Table) FinishRecovery() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.moving {
		s.SetState(delta.Closed)
		t.closed = append(t.closed, s)
	}
	t.moving = make(map[int]*delta.Store)
	for id := range t.txnPending {
		t.abortTxnLocked(id)
	}
	t.settleLocked()
}

// LiveBlobs records the blob ids reachable from the table's directory into
// keep (recovery's orphan-blob GC uses the union across tables).
func (t *Table) LiveBlobs(keep map[uint64]bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, g := range t.idx.Groups() {
		for i := range g.Segs {
			keep[uint64(g.Segs[i].Blob)] = true
			if g.Segs[i].LocalDict != 0 {
				keep[uint64(g.Segs[i].LocalDict)] = true
			}
		}
	}
}

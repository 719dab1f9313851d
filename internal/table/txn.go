package table

import (
	"errors"

	"apollo/internal/delta"
)

// Transaction plumbing: the table applies DML on behalf of transactions
// (provisional row versions tagged with the owner's id) or autocommit
// statements (committed-at-write versions, settled when no snapshot could
// tell the difference). The transaction manager (internal/txn) owns
// timestamps; the table sees it through the Clock interface so the packages
// stay decoupled (txn imports table, not vice versa).

// ErrWriteConflict re-exports the delta layer's typed conflict error.
var ErrWriteConflict = delta.ErrWriteConflict

// ErrBusyTxns is returned by offline maintenance (REBUILD) when active
// transactions pin unsettled row versions the operation would destroy.
var ErrBusyTxns = errors.New("table busy: active transactions pin unsettled row versions")

// Clock is the table's view of the transaction manager's timestamp state.
// All methods are safe for concurrent use and may be called under the table
// lock (the manager must never acquire table locks from them).
type Clock interface {
	// StableTS returns the latest commit timestamp whose transaction (and
	// all before it) is fully applied — the snapshot a new reader gets.
	StableTS() uint64
	// Horizon returns the oldest snapshot any active transaction or pinned
	// reader may use (MaxTS when none): versions at or below it can settle.
	Horizon() uint64
	// AllocCommitTS allocates the next commit timestamp. The caller must
	// pair it with FinishCommitTS once the writes carrying it are applied;
	// StableTS does not advance past an unfinished allocation.
	AllocCommitTS() uint64
	// FinishCommitTS marks an allocated timestamp fully applied.
	FinishCommitTS(uint64)
}

// SetClock attaches the transaction manager's clock. Attach before DML
// (normally right after New or recovery). A table without a clock treats
// every write as settled — the single-session behavior.
func (t *Table) SetClock(c Clock) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock = c
}

// TxnRef identifies the transaction a DML call runs in: ID is the
// TxnBit-tagged transaction id and SnapTS its snapshot. The zero TxnRef
// means autocommit.
type TxnRef struct {
	ID     uint64
	SnapTS uint64
}

// ReadView selects the snapshot a query reads: AsOf is the commit timestamp
// to read at (zero = latest committed) and Self the reader's own transaction
// id so it sees its own uncommitted writes.
type ReadView struct {
	AsOf uint64
	Self uint64
}

func (t *Table) stableTSLocked() uint64 {
	if t.clock == nil {
		return delta.MaxTS
	}
	return t.clock.StableTS()
}

func (t *Table) horizonLocked() uint64 {
	if t.clock == nil {
		return delta.MaxTS
	}
	return t.clock.Horizon()
}

// writeCtx carries one statement's write identity: self/asOf for visibility
// and conflict checks, ts for the begin/end fields of the rows it writes,
// and whether ts is a fresh autocommit allocation that must be finished.
type writeCtx struct {
	self  uint64 // TxnBit-tagged id, or 0 for autocommit
	asOf  uint64 // snapshot for visibility checks
	ts    uint64 // value written into begin/end fields (0 = settled)
	alloc bool   // ts came from AllocCommitTS; release with finishWrite
}

// writeCtxLocked resolves the write identity for one statement. Autocommit
// statements write settled versions when no snapshot is active (the
// single-session fast path, byte-identical to pre-MVCC behavior); otherwise
// they allocate a commit timestamp so concurrent snapshot readers do not see
// the statement's rows appear mid-query.
func (t *Table) writeCtxLocked(tx TxnRef) writeCtx {
	if tx.ID != 0 {
		return writeCtx{self: tx.ID, asOf: tx.SnapTS, ts: tx.ID}
	}
	asOf := t.stableTSLocked()
	if t.clock == nil || t.horizonLocked() == delta.MaxTS {
		return writeCtx{asOf: asOf}
	}
	return writeCtx{asOf: asOf, ts: t.clock.AllocCommitTS(), alloc: true}
}

// finishWrite releases an autocommit timestamp allocation.
func (t *Table) finishWrite(wc writeCtx) {
	if wc.alloc {
		t.clock.FinishCommitTS(wc.ts)
	}
}

// intentKind distinguishes the provisional effects a transaction leaves.
type intentKind uint8

const (
	intentInsert       intentKind = iota // provisional delta-store row
	intentDeltaDelete                    // provisional end mark on a delta row
	intentBitmapDelete                   // pending delete-bitmap entry
)

// intent is one provisional effect, recorded so commit/abort (and recovery)
// can finalize or roll it back.
type intent struct {
	kind         intentKind
	deltaID      int
	key          uint64
	group, tuple int
}

func (t *Table) addIntentLocked(id uint64, in intent) {
	if t.txnPending == nil {
		t.txnPending = make(map[uint64][]intent)
	}
	t.txnPending[id] = append(t.txnPending[id], in)
}

// CommitTxn finalizes the transaction's provisional effects at commit
// timestamp cts: begin/end fields flip from the transaction id to cts,
// making them visible to snapshots at or after cts. Idempotent; a no-op for
// transactions that touched nothing here.
func (t *Table) CommitTxn(id, cts uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.commitTxnLocked(id, cts)
}

func (t *Table) commitTxnLocked(id, cts uint64) {
	ins := t.txnPending[id]
	if len(ins) == 0 {
		return
	}
	delete(t.txnPending, id)
	for _, in := range ins {
		switch in.kind {
		case intentInsert:
			if s := t.deltaByIDLocked(in.deltaID); s != nil {
				s.CommitInsert(in.key, cts)
			}
		case intentDeltaDelete:
			if s := t.deltaByIDLocked(in.deltaID); s != nil {
				s.CommitDelete(in.key, cts)
			}
		case intentBitmapDelete:
			t.deletes.CommitPending(in.group, in.tuple, cts)
		}
	}
	t.settleLocked()
}

// AbortTxn rolls back the transaction's provisional effects: provisional
// inserts vanish, provisional deletes clear. Idempotent.
func (t *Table) AbortTxn(id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.abortTxnLocked(id)
}

func (t *Table) abortTxnLocked(id uint64) {
	ins := t.txnPending[id]
	if len(ins) == 0 {
		return
	}
	delete(t.txnPending, id)
	for _, in := range ins {
		switch in.kind {
		case intentInsert:
			if s := t.deltaByIDLocked(in.deltaID); s != nil {
				s.AbortInsert(in.key)
			}
		case intentDeltaDelete:
			if s := t.deltaByIDLocked(in.deltaID); s != nil {
				s.AbortDelete(in.key)
			}
		case intentBitmapDelete:
			t.deletes.AbortPending(in.group, in.tuple)
		}
	}
	t.settleLocked()
}

// settleLocked collects version state no active snapshot can distinguish:
// committed tombstones below the horizon are physically removed, settled
// version entries dropped, recent delete-bitmap entries folded into the base
// bitmap. Runs opportunistically after commits/aborts and before tuple-mover
// passes; cheap when there is nothing to do.
func (t *Table) settleLocked() {
	h := t.horizonLocked()
	t.eachDeltaLocked(func(s *delta.Store) { s.Purge(h) })
	t.deletes.Settle(h)
}

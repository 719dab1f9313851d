// Package txn implements multi-session snapshot-isolation transactions over
// the table layer (§1.2's "data warehouses still need transactions"; the
// mechanics follow the Hekaton MVCC design by the same authors): a monotonic
// commit-timestamp clock, per-transaction snapshots, first-writer-wins
// conflict resolution (surfaced by the table layer as ErrWriteConflict), and
// a commit pipeline that logs one TCommit record per transaction and rides
// the WAL's cross-session group commit for durability.
//
// The manager is the single authority on timestamps. Tables see it through
// the table.Clock interface; the visibility rules themselves live in
// internal/delta. Lock order: Manager.commitMu > table locks > Manager.mu —
// the clock methods (called under table locks) take only mu, and mu never
// acquires anything.
package txn

import (
	"context"
	"errors"
	"sort"
	"sync"

	"apollo/internal/delta"
	"apollo/internal/metrics"
	"apollo/internal/table"
	"apollo/internal/wal"
)

// ErrClosed is returned by Begin, Commit, and DML helpers once the manager
// has shut down (DB.Close aborts every in-flight transaction).
var ErrClosed = errors.New("database closed")

// ErrTxnDone is returned when a transaction is used after Commit or Rollback.
var ErrTxnDone = errors.New("transaction already finished")

var (
	mCommits = metrics.Default.Counter("apollo_txn_commits_total",
		"transactions committed")
	mAborts = metrics.Default.Counter("apollo_txn_aborts_total",
		"transactions rolled back (explicit or conflict)")
	mConflicts = metrics.Default.Counter("apollo_txn_conflicts_total",
		"write-write conflicts surfaced to sessions")
)

// Manager owns transaction ids, commit timestamps, and the active-snapshot
// registry that drives the settling horizon. One Manager serves one database.
type Manager struct {
	w *wal.Writer // may be nil (non-durable database)

	// commitMu serializes the commit pipeline: TCommit append, version flips,
	// and watermark release happen under it, so log order of TCommit records
	// equals commit-timestamp order and a checkpoint can take the lock to get
	// a rotation point no commit straddles.
	commitMu sync.Mutex

	mu            sync.Mutex
	nextID        uint64              // next transaction id (TxnBit-tagged when handed out)
	nextTS        uint64              // next commit timestamp
	lastCommitted uint64              // every commit at or below this is fully applied
	pendingTS     map[uint64]struct{} // allocated, not yet fully applied
	active        map[uint64]*Txn     // in-flight transactions by id
	pins          map[uint64]int      // snapshot read pins: asOf -> refcount
	closed        bool
}

// NewManager creates a manager whose TCommit records go to w (nil for a
// non-durable database).
func NewManager(w *wal.Writer) *Manager {
	return &Manager{
		w:         w,
		nextID:    1,
		nextTS:    1,
		pendingTS: make(map[uint64]struct{}),
		active:    make(map[uint64]*Txn),
		pins:      make(map[uint64]int),
	}
}

// --- table.Clock -----------------------------------------------------------

// StableTS returns the latest fully-applied commit timestamp (the snapshot a
// new reader gets).
func (m *Manager) StableTS() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastCommitted
}

// Horizon returns the oldest snapshot anything in the system may still read:
// active transactions' snapshots, pinned readers, and (exclusively below) any
// commit timestamp that is allocated but not yet fully applied. Version state
// at or below the horizon can settle. MaxTS when nothing constrains it.
func (m *Manager) Horizon() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := delta.MaxTS
	for _, tx := range m.active {
		if tx.snap < h {
			h = tx.snap
		}
	}
	for asOf := range m.pins {
		if asOf < h {
			h = asOf
		}
	}
	for ts := range m.pendingTS {
		if ts-1 < h {
			h = ts - 1
		}
	}
	return h
}

// AllocCommitTS allocates the next commit timestamp and registers it pending:
// StableTS will not advance past it until FinishCommitTS, so no reader takes
// a snapshot that includes a half-applied write.
func (m *Manager) AllocCommitTS() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.nextTS
	m.nextTS++
	m.pendingTS[ts] = struct{}{}
	return ts
}

// FinishCommitTS marks ts fully applied and advances the stable watermark to
// just below the oldest still-pending allocation.
func (m *Manager) FinishCommitTS(ts uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.pendingTS, ts)
	m.advanceLocked()
}

func (m *Manager) advanceLocked() {
	stable := m.nextTS - 1
	for ts := range m.pendingTS {
		if ts-1 < stable {
			stable = ts - 1
		}
	}
	if stable > m.lastCommitted {
		m.lastCommitted = stable
	}
}

// --- snapshot pins ---------------------------------------------------------

// PinRead registers a snapshot at the current stable timestamp for the
// duration of a query, holding the settling horizon at or below it so the
// tuple mover and version purge cannot disturb rows the query may read.
// Returns the pinned timestamp and a release func (idempotent).
func (m *Manager) PinRead() (uint64, func()) {
	m.mu.Lock()
	asOf := m.lastCommitted
	m.pins[asOf]++
	m.mu.Unlock()
	var once sync.Once
	return asOf, func() {
		once.Do(func() {
			m.mu.Lock()
			if m.pins[asOf]--; m.pins[asOf] <= 0 {
				delete(m.pins, asOf)
			}
			m.mu.Unlock()
		})
	}
}

// Lock and Unlock expose the commit pipeline lock as a sync.Locker, so the
// checkpoint (persist.Barrier) can hold it around the WAL rotation and
// observe a point no commit straddles.
func (m *Manager) Lock()   { m.commitMu.Lock() }
func (m *Manager) Unlock() { m.commitMu.Unlock() }

// --- transactions ----------------------------------------------------------

// Txn is one in-flight transaction: a snapshot, a TxnBit-tagged id, and the
// set of tables it has written. Safe for use by one session at a time (the
// usual sql.Tx discipline); the manager may abort it concurrently on Close.
type Txn struct {
	m    *Manager
	id   uint64
	snap uint64

	mu      sync.Mutex
	tables  map[string]*table.Table // tables with provisional effects
	began   bool                    // TBegin logged (lazily, on first write)
	done    bool
	doneErr error // what finished it: nil (commit/rollback) or ErrClosed
}

// Begin starts a transaction reading from the current stable snapshot.
func (m *Manager) Begin(ctx context.Context) (*Txn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	id := delta.TxnBit | m.nextID
	m.nextID++
	tx := &Txn{m: m, id: id, snap: m.lastCommitted, tables: make(map[string]*table.Table)}
	m.active[id] = tx
	return tx, nil
}

// ID returns the TxnBit-tagged transaction id.
func (tx *Txn) ID() uint64 { return tx.id }

// SnapTS returns the transaction's snapshot timestamp.
func (tx *Txn) SnapTS() uint64 { return tx.snap }

// Ref returns the table-layer handle DML calls run under.
func (tx *Txn) Ref() table.TxnRef { return table.TxnRef{ID: tx.id, SnapTS: tx.snap} }

// View returns the read view for queries inside the transaction.
func (tx *Txn) View() table.ReadView { return table.ReadView{AsOf: tx.snap, Self: tx.id} }

// Touch records that the transaction is about to write t, logging the TBegin
// record lazily so read-only transactions leave no trace in the WAL. Call it
// before the table-layer DML.
func (tx *Txn) Touch(t *table.Table) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return tx.finishedErrLocked()
	}
	if !tx.began {
		tx.began = true
		if tx.m.w != nil {
			if _, err := tx.m.w.AppendAsync(&wal.Record{Type: wal.TBegin, Txn: tx.id}); err != nil {
				return err
			}
		}
	}
	tx.tables[t.Name] = t
	return nil
}

func (tx *Txn) finishedErrLocked() error {
	if tx.doneErr != nil {
		return tx.doneErr
	}
	return ErrTxnDone
}

// Done reports whether the transaction has finished (committed, rolled back,
// or aborted by Close).
func (tx *Txn) Done() bool {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return tx.done
}

// Err reports why the transaction ended abnormally (ErrClosed when DB.Close
// aborted it); nil while in flight or after a normal Commit/Rollback.
func (tx *Txn) Err() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return tx.doneErr
}

// tablesSorted snapshots the touched tables in a deterministic order.
func (tx *Txn) tablesSorted() []*table.Table {
	names := make([]string, 0, len(tx.tables))
	for n := range tx.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*table.Table, 0, len(names))
	for _, n := range names {
		out = append(out, tx.tables[n])
	}
	return out
}

// Commit makes the transaction's writes visible at a fresh commit timestamp
// and, when the WAL policy is fsync-always, waits (context-aware) until the
// TCommit record is durable. Commits from concurrent sessions waiting at the
// same time share one fsync (cross-session group commit). On a context
// cancellation during the durability wait the commit IS applied and will be
// durable with the next sync; only the confirmation is abandoned.
func (tx *Txn) Commit(ctx context.Context) error {
	m := tx.m
	m.commitMu.Lock()

	tx.mu.Lock()
	if tx.done {
		err := tx.finishedErrLocked()
		tx.mu.Unlock()
		m.commitMu.Unlock()
		return err
	}
	tx.done = true
	wrote := tx.began
	tables := tx.tablesSorted()
	tx.mu.Unlock()

	m.mu.Lock()
	closed := m.closed
	delete(m.active, tx.id)
	m.mu.Unlock()
	if closed {
		m.commitMu.Unlock()
		// Roll back here too: Close may have skipped this transaction after
		// seeing it already marked done (AbortTxn is idempotent).
		for _, t := range tables {
			t.AbortTxn(tx.id)
		}
		tx.setDoneErr(ErrClosed)
		mAborts.Inc()
		return ErrClosed
	}
	if !wrote {
		// Read-only: nothing to log or flip; dropping the active entry
		// released the snapshot.
		m.commitMu.Unlock()
		mCommits.Inc()
		return nil
	}

	cts := m.AllocCommitTS()
	var target int64
	var appendErr error
	if m.w != nil {
		target, appendErr = m.w.AppendAsync(&wal.Record{Type: wal.TCommit, Txn: tx.id, A: cts})
		if appendErr != nil {
			// The log rejected the commit record: roll back.
			for _, t := range tables {
				t.AbortTxn(tx.id)
			}
			m.FinishCommitTS(cts)
			m.commitMu.Unlock()
			mAborts.Inc()
			return appendErr
		}
	}
	for _, t := range tables {
		t.CommitTxn(tx.id, cts)
	}
	m.FinishCommitTS(cts)
	m.commitMu.Unlock()
	mCommits.Inc()

	if m.w != nil && m.w.Policy() == wal.FsyncAlways {
		return m.w.WaitDurable(ctx, target)
	}
	return nil
}

// Rollback discards the transaction's provisional writes. Safe to call after
// a failed statement; idempotent once the transaction finished.
func (tx *Txn) Rollback(ctx context.Context) error {
	m := tx.m
	tx.mu.Lock()
	already := tx.done
	tx.done = true
	wrote := tx.began && !already
	tables := tx.tablesSorted()
	tx.mu.Unlock()

	m.mu.Lock()
	delete(m.active, tx.id)
	m.mu.Unlock()

	// Abort even when the transaction already finished via Close: a DML call
	// racing the shutdown may have left an intent behind, and AbortTxn is
	// idempotent.
	for _, t := range tables {
		t.AbortTxn(tx.id)
	}
	if already {
		return nil
	}
	if wrote && m.w != nil {
		// Advisory: recovery treats any transaction without a durable TCommit
		// as aborted, so the record only helps log inspection.
		m.w.AppendAsync(&wal.Record{Type: wal.TAbort, Txn: tx.id})
	}
	mAborts.Inc()
	return ctx.Err()
}

func (tx *Txn) setDoneErr(err error) {
	tx.mu.Lock()
	tx.doneErr = err
	tx.mu.Unlock()
}

// ConflictSeen bumps the conflict metric (the SQL layer calls it when
// surfacing ErrWriteConflict to a session).
func (m *Manager) ConflictSeen() { mConflicts.Inc() }

// ActiveCount returns the number of in-flight transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// Close shuts the manager down: new Begin/Commit calls fail with ErrClosed
// and every in-flight transaction is rolled back (its session sees ErrClosed
// from the next call on the transaction). Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	victims := make([]*Txn, 0, len(m.active))
	for _, tx := range m.active {
		victims = append(victims, tx)
	}
	m.active = make(map[uint64]*Txn)
	m.mu.Unlock()

	for _, tx := range victims {
		tx.mu.Lock()
		already := tx.done
		tx.done = true
		tx.doneErr = ErrClosed
		tables := tx.tablesSorted()
		tx.mu.Unlock()
		if already {
			continue
		}
		for _, t := range tables {
			t.AbortTxn(tx.id)
		}
		mAborts.Inc()
	}
}

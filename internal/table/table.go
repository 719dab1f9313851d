// Package table implements the paper's updatable clustered columnstore index
// (§4): a table whose base storage is a columnstore index, augmented with
// delta stores that absorb trickle inserts, a delete bitmap covering
// compressed row groups, and a tuple mover that compresses CLOSED delta
// stores into row groups in the background. Bulk loads above a threshold
// bypass delta stores and compress directly; updates are delete + insert.
package table

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"apollo/internal/colstore"
	"apollo/internal/delta"
	"apollo/internal/sched"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/wal"
)

// Options configure a clustered columnstore table.
type Options struct {
	// RowGroupSize is the target rows per compressed row group (the paper
	// uses about one million). A delta store closes when it reaches this.
	RowGroupSize int
	// BulkLoadThreshold is the minimum batch size that compresses directly
	// instead of landing in a delta store (102,400 in the shipped system).
	BulkLoadThreshold int
	// Columnstore selects segment compression options (tier, reordering,
	// dictionary policy).
	Columnstore colstore.Options
}

// DefaultOptions mirrors the shipped system's constants.
func DefaultOptions() Options {
	return Options{
		RowGroupSize:      1 << 20,
		BulkLoadThreshold: 102400,
		Columnstore:       colstore.DefaultOptions(),
	}
}

// Locator is a bookmark (§4.4): a stable address of a row, either (row group,
// tuple id) for compressed rows or (delta store, key) for delta rows.
type Locator struct {
	InDelta bool
	Group   int    // compressed: row group id
	Tuple   int    // compressed: tuple id within the group
	DeltaID int    // delta: store id
	Key     uint64 // delta: tuple key
}

func (l Locator) String() string {
	if l.InDelta {
		return fmt.Sprintf("delta(%d,%d)", l.DeltaID, l.Key)
	}
	return fmt.Sprintf("rg(%d,%d)", l.Group, l.Tuple)
}

// Table is an updatable clustered columnstore table.
type Table struct {
	Name   string
	Schema *sqltypes.Schema
	Opts   Options

	mu      sync.RWMutex
	idx     *colstore.Index
	open    *delta.Store
	closed  []*delta.Store
	moving  map[int]*delta.Store
	deltaID int
	deletes *delta.DeleteBitmap

	// clock is the transaction manager's timestamp view (nil = no manager;
	// every write settles immediately). txnPending indexes the provisional
	// effects of each in-flight transaction for commit/abort/recovery.
	clock      Clock
	txnPending map[uint64][]intent

	// statsVersion increments on every row-group publish (tuple mover, bulk
	// load, rebuild, merge). Publishes can shift the data distribution without
	// a large row-count delta, so the statistics cache keys recollection on
	// this counter in addition to row drift.
	statsVersion uint64

	// compressMu serializes row-group compression (tuple mover vs bulk load)
	// so the shared primary dictionaries see a single writer. Paths that hold
	// both locks take compressMu BEFORE t.mu; keeping builds and their
	// publish records under one compressMu hold also makes WAL publish order
	// equal build order, which dictionary-append replay depends on.
	compressMu sync.Mutex

	// wal, when set, receives a record for every durable mutation. Records
	// are appended inside the same t.mu critical section that applies the
	// change, so per-table log order equals apply order.
	wal *wal.Writer

	mover  atomic.Pointer[sched.Job] // set by MoverJob
	health moverHealth

	// moverTestHookAfterBuild, when set, runs in MoveOnce after the row group
	// is built but before it is published — the window where the source store
	// is Moving and concurrent deletes land in its delete buffer. Tests use it
	// to exercise the publish-with-pending-deletes path deterministically.
	moverTestHookAfterBuild func()
}

// New creates an empty clustered columnstore table.
func New(store *storage.Store, name string, schema *sqltypes.Schema, opts Options) *Table {
	if opts.RowGroupSize <= 0 {
		opts.RowGroupSize = DefaultOptions().RowGroupSize
	}
	if opts.BulkLoadThreshold <= 0 {
		opts.BulkLoadThreshold = DefaultOptions().BulkLoadThreshold
	}
	t := &Table{
		Name:    name,
		Schema:  schema,
		Opts:    opts,
		idx:     colstore.NewIndex(store, schema, opts.Columnstore),
		deletes: delta.NewDeleteBitmap(),
		moving:  make(map[int]*delta.Store),
	}
	t.open = t.newDeltaStoreLocked()
	return t
}

// SetWAL attaches a write-ahead log; subsequent mutations are logged.
// Attach before any DML (normally right after New or recovery).
func (t *Table) SetWAL(w *wal.Writer) { t.wal = w }

// logWAL appends a record for this table. A nil writer (non-durable table)
// is a no-op.
func (t *Table) logWAL(rec *wal.Record) error {
	if t.wal == nil {
		return nil
	}
	rec.Table = t.Name
	return t.wal.Append(rec)
}

// logTxnWAL appends a record tagged with a transaction id. Transactional
// records skip the per-record fsync: the transaction is committed only by
// its TCommit record, whose durability wait covers the whole log prefix.
// txn zero falls back to the autocommit path.
func (t *Table) logTxnWAL(rec *wal.Record, txn uint64) error {
	if t.wal == nil {
		return nil
	}
	rec.Table = t.Name
	rec.Txn = txn
	if txn != 0 {
		_, err := t.wal.AppendAsync(rec)
		return err
	}
	return t.wal.Append(rec)
}

// Index exposes the compressed columnstore index (read-only use).
func (t *Table) Index() *colstore.Index { return t.idx }

// Deletes exposes the delete bitmap (read-only use).
func (t *Table) Deletes() *delta.DeleteBitmap { return t.deletes }

func (t *Table) newDeltaStoreLocked() *delta.Store {
	t.deltaID++
	return delta.NewStore(t.deltaID)
}

// CheckRow returns an error unless row fits the schema: its width, each
// column's type, and NOT NULL. A multi-row write checks every row before it
// writes the first.
func (t *Table) CheckRow(row sqltypes.Row) error {
	if len(row) != t.Schema.Len() {
		return fmt.Errorf("table %s: row width %d, want %d", t.Name, len(row), t.Schema.Len())
	}
	for i, col := range t.Schema.Cols {
		v := row[i]
		if v.Null {
			if !col.Nullable {
				return fmt.Errorf("table %s: NULL in non-nullable column %s", t.Name, col.Name)
			}
			continue
		}
		want := col.Typ
		got := v.Typ
		if got != want && !(want.Numeric() && got.Numeric()) {
			return fmt.Errorf("table %s: column %s expects %v, got %v", t.Name, col.Name, want, got)
		}
	}
	return nil
}

// coerceRow normalizes numeric types to the column types.
func (t *Table) coerceRow(row sqltypes.Row) sqltypes.Row {
	out := row.Clone()
	for i, col := range t.Schema.Cols {
		v := out[i]
		if v.Null {
			out[i] = sqltypes.NewNull(col.Typ)
			continue
		}
		switch {
		case col.Typ == sqltypes.Float64 && v.Typ == sqltypes.Int64:
			out[i] = sqltypes.NewFloat(float64(v.I))
		case col.Typ == sqltypes.Int64 && v.Typ == sqltypes.Float64:
			out[i] = sqltypes.NewInt(int64(v.F))
		default:
			out[i].Typ = col.Typ
		}
	}
	return out
}

// Insert trickle-inserts one row into the open delta store (§4.2). When the
// open store reaches RowGroupSize it is closed and a new one opened; the
// tuple mover picks up closed stores.
func (t *Table) Insert(row sqltypes.Row) (Locator, error) {
	return t.InsertTxn(TxnRef{}, row)
}

// InsertTxn trickle-inserts one row on behalf of tx (the zero TxnRef means
// autocommit). A transactional insert is provisional — invisible to other
// sessions until the transaction commits.
func (t *Table) InsertTxn(tx TxnRef, row sqltypes.Row) (Locator, error) {
	if err := t.CheckRow(row); err != nil {
		return Locator{}, err
	}
	row = t.coerceRow(row)
	t.mu.Lock()
	wc := t.writeCtxLocked(tx)
	loc, closedNow, err := t.insertOpenLocked(row, wc)
	t.finishWrite(wc)
	t.mu.Unlock()
	if err != nil {
		return Locator{}, err
	}
	if closedNow {
		t.mover.Load().Kick()
	}
	return loc, nil
}

// insertOpenLocked logs and applies one insert into the open delta store,
// closing it (with a logged transition) when it reaches RowGroupSize. The
// record goes first: the key is known before the insert (keys are assigned
// monotonically), and on append failure nothing has been applied. The store
// keeps row, so the caller must own it (coerceRow's copy).
func (t *Table) insertOpenLocked(row sqltypes.Row, wc writeCtx) (Locator, bool, error) {
	key := t.open.NextKey()
	if t.wal != nil {
		enc := sqltypes.EncodeRow(nil, t.Schema, row)
		if err := t.logTxnWAL(&wal.Record{Type: wal.TDeltaInsert, A: uint64(t.open.ID), B: key, Payload: enc}, wc.self); err != nil {
			return Locator{}, false, err
		}
	}
	if _, err := t.open.InsertAt(row, wc.ts); err != nil {
		return Locator{}, false, err
	}
	if wc.self != 0 {
		t.addIntentLocked(wc.self, intent{kind: intentInsert, deltaID: t.open.ID, key: key})
	}
	loc := Locator{InDelta: true, DeltaID: t.open.ID, Key: key}
	if t.open.Rows() >= t.Opts.RowGroupSize {
		if err := t.closeOpenLocked(); err != nil {
			return loc, false, err
		}
		return loc, true, nil
	}
	return loc, false, nil
}

// closeOpenLocked logs and applies the open-store transition: the current
// open store becomes CLOSED (mover input) and a fresh open store is created.
func (t *Table) closeOpenLocked() error {
	old := t.open
	if err := t.logWAL(&wal.Record{Type: wal.TDeltaClose, A: uint64(old.ID), B: uint64(t.deltaID + 1)}); err != nil {
		return err
	}
	old.Close()
	t.closed = append(t.closed, old)
	t.open = t.newDeltaStoreLocked()
	return nil
}

// compressRows builds one compressed row group directly from rows and
// publishes it (bulk-load path; no delta store is consumed).
func (t *Table) compressRows(rows []sqltypes.Row) error {
	t.compressMu.Lock()
	defer t.compressMu.Unlock()
	bufs := colstore.BuffersFromRows(t.Schema, rows)
	g, _, dicts, err := t.buildGroup(bufs)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.publishLocked(g, dicts, 0, nil)
}

// buildGroup builds (but does not publish) a row group, capturing the
// primary-dictionary entries the build appended so the publish WAL record can
// replay them. Caller holds compressMu.
func (t *Table) buildGroup(bufs []*colstore.ColumnBuf) (*colstore.RowGroup, []int, []colstore.DictAppend, error) {
	prev := make([]int, t.Schema.Len())
	for c := range t.Schema.Cols {
		if d := t.idx.Primary(c); d != nil {
			prev[c] = d.Len()
		}
	}
	g, perm, err := t.idx.BuildRowGroup(bufs)
	if err != nil {
		return nil, nil, nil, err
	}
	var dicts []colstore.DictAppend
	for c := range t.Schema.Cols {
		d := t.idx.Primary(c)
		if d == nil {
			continue
		}
		if cur := d.Len(); cur > prev[c] {
			vals := append([]string(nil), d.SnapshotValues()[prev[c]:cur]...)
			dicts = append(dicts, colstore.DictAppend{Col: c, Prev: prev[c], Vals: vals})
		}
	}
	return g, perm, dicts, nil
}

// publishLocked assigns the group the id it will carry in the directory,
// logs the publish (group metadata + dictionary appends; the segment blobs
// are already durable via the store's write-through backing), and installs
// it. consumed names the delta store the group replaces (0 = none). deletes
// lists tuple ids already deleted at publish time (deletes that landed while
// the mover compressed); they travel inside the publish record so publish and
// deletes are one atomic log append. Caller holds t.mu, and compressMu
// whenever another build could interleave.
func (t *Table) publishLocked(g *colstore.RowGroup, dicts []colstore.DictAppend, consumed int, deletes []int) error {
	g.ID = t.idx.NextGroupID()
	if t.wal != nil {
		payload := colstore.MarshalPublish(&colstore.Publish{Group: g, Dicts: dicts, Deletes: deletes})
		if err := t.logWAL(&wal.Record{Type: wal.TGroupPublish, A: uint64(consumed), Payload: payload}); err != nil {
			return err
		}
	}
	t.idx.RestoreGroup(g)
	for _, tid := range deletes {
		t.deletes.Delete(g.ID, tid)
	}
	t.statsVersion++
	return nil
}

// StatsVersion reports the table's publish epoch: it changes whenever a row
// group is published (tuple mover, bulk load, rebuild, merge). Statistics
// collected at one version are stale once the version moves.
func (t *Table) StatsVersion() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.statsVersion
}

// FetchRow resolves a bookmark to a copy of its row. Deleted or stale
// locators report ok=false.
func (t *Table) FetchRow(loc Locator) (sqltypes.Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	row, ok := t.fetchRowViewLocked(loc, t.stableTSLocked(), 0)
	if ok && loc.InDelta {
		row = row.Clone()
	}
	return row, ok
}

// fetchRowViewLocked resolves a bookmark as seen by a snapshot at asOf taken
// by self. A delta row is the store's own and must not be modified.
func (t *Table) fetchRowViewLocked(loc Locator, asOf, self uint64) (sqltypes.Row, bool) {
	if loc.InDelta {
		if s := t.deltaByIDLocked(loc.DeltaID); s != nil {
			if !s.Version(loc.Key).VisibleAt(asOf, self) {
				return nil, false
			}
			return s.Get(loc.Key)
		}
		return nil, false
	}
	if t.deletes.IsDeletedAt(loc.Group, loc.Tuple, asOf, self) {
		return nil, false
	}
	g := t.idx.Group(loc.Group)
	if g == nil || loc.Tuple < 0 || loc.Tuple >= g.Rows {
		return nil, false
	}
	readers, err := t.groupReadersLocked(g)
	if err != nil {
		return nil, false
	}
	return rowAt(readers, loc.Tuple), true
}

// groupReadersLocked opens a reader on every column of g.
func (t *Table) groupReadersLocked(g *colstore.RowGroup) ([]*colstore.ColumnReader, error) {
	readers := make([]*colstore.ColumnReader, t.Schema.Len())
	for c := range readers {
		r, err := t.idx.OpenColumn(g, c)
		if err != nil {
			return nil, err
		}
		readers[c] = r
	}
	return readers, nil
}

// rowAt materializes tuple i of the group the readers were opened on.
func rowAt(readers []*colstore.ColumnReader, i int) sqltypes.Row {
	row := make(sqltypes.Row, len(readers))
	for c, r := range readers {
		row[c] = r.Value(i)
	}
	return row
}

// eachDeltaLocked calls fn for every delta store: the open one, then the
// closed queue, then the stores being moved.
func (t *Table) eachDeltaLocked(fn func(*delta.Store)) {
	fn(t.open)
	for _, s := range t.closed {
		fn(s)
	}
	for _, s := range t.moving {
		fn(s)
	}
}

func (t *Table) deltaByIDLocked(id int) *delta.Store {
	if t.open != nil && t.open.ID == id {
		return t.open
	}
	for _, s := range t.closed {
		if s.ID == id {
			return s
		}
	}
	return t.moving[id]
}

// DeleteAt marks the row at loc deleted (§4.1): delta rows are removed from
// their store (or tombstoned when snapshots pin them); compressed rows are
// marked in the delete bitmap. A WAL append failure reports false (the
// delete did not happen).
func (t *Table) DeleteAt(loc Locator) bool {
	ok, _ := t.DeleteAtTxn(TxnRef{}, loc)
	return ok
}

// DeleteAtTxn deletes the row at loc on behalf of tx, surfacing
// ErrWriteConflict when another transaction already wrote the row.
func (t *Table) DeleteAtTxn(tx TxnRef, loc Locator) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	wc := t.writeCtxLocked(tx)
	defer t.finishWrite(wc)
	return t.deleteAtLocked(loc, wc)
}

// deleteAtLocked deletes the row at loc on behalf of wc. The sequence is
// probe, log, mark — all under t.mu: the probe rejects conflicts and
// already-deleted rows before anything is logged (a conflict must leave no
// record, or recovery would replay the loser's delete), and the mark after a
// successful append cannot fail because the lock kept the probed state fixed.
func (t *Table) deleteAtLocked(loc Locator, wc writeCtx) (bool, error) {
	if loc.InDelta {
		s := t.deltaByIDLocked(loc.DeltaID)
		if s == nil {
			return false, nil
		}
		switch s.CheckDelete(loc.Key, wc.self, wc.asOf) {
		case delta.MarkNotFound:
			return false, nil
		case delta.MarkConflict:
			return false, ErrWriteConflict
		}
		if err := t.logTxnWAL(&wal.Record{Type: wal.TDeltaDelete, A: uint64(loc.DeltaID), B: loc.Key}, wc.self); err != nil {
			return false, err
		}
		s.MarkDeleted(loc.Key, wc.ts, wc.self, wc.asOf)
		if wc.self != 0 {
			t.addIntentLocked(wc.self, intent{kind: intentDeltaDelete, deltaID: loc.DeltaID, key: loc.Key})
		}
		return true, nil
	}
	g := t.idx.Group(loc.Group)
	if g == nil || loc.Tuple < 0 || loc.Tuple >= g.Rows {
		return false, nil
	}
	switch t.deletes.CheckDelete(loc.Group, loc.Tuple, wc.self, wc.asOf) {
	case delta.MarkNotFound:
		return false, nil
	case delta.MarkConflict:
		return false, ErrWriteConflict
	}
	if err := t.logTxnWAL(&wal.Record{Type: wal.TDeleteSet, A: uint64(loc.Group), B: uint64(loc.Tuple)}, wc.self); err != nil {
		return false, err
	}
	t.deletes.MarkDeleted(loc.Group, loc.Tuple, wc.ts, wc.self, wc.asOf)
	if wc.self != 0 {
		t.addIntentLocked(wc.self, intent{kind: intentBitmapDelete, group: loc.Group, tuple: loc.Tuple})
	}
	return true, nil
}

// DeleteWhere deletes all rows matching pred and returns the count. The scan
// and the deletes run under one exclusive lock, so DML is serialized.
func (t *Table) DeleteWhere(pred func(sqltypes.Row) bool) (int, error) {
	return t.DeleteWhereTxn(TxnRef{}, pred)
}

// DeleteWhereTxn deletes all rows matching pred on behalf of tx. The
// statement sees tx's snapshot (plus its own earlier writes); a row a
// concurrent transaction already wrote surfaces as ErrWriteConflict.
func (t *Table) DeleteWhereTxn(tx TxnRef, pred func(sqltypes.Row) bool) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	wc := t.writeCtxLocked(tx)
	defer t.finishWrite(wc)
	locs, err := t.matchLocked(pred, wc)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, loc := range locs {
		ok, err := t.deleteAtLocked(loc, wc)
		if err != nil {
			return n, err
		}
		if ok {
			n++
		}
	}
	return n, nil
}

// UpdateWhere applies set to every row matching pred, implemented as
// delete + insert per the paper's §4.1. It returns the update count.
func (t *Table) UpdateWhere(pred func(sqltypes.Row) bool, set func(sqltypes.Row) sqltypes.Row) (int, error) {
	return t.UpdateWhereTxn(TxnRef{}, pred, set)
}

// UpdateWhereTxn applies set to every row matching pred on behalf of tx
// (delete + insert under one write context, so both halves carry the same
// timestamp and no snapshot sees the delete without the insert). Every new
// row is computed and checked before the first write, so a row that fails
// the check leaves the table as it was.
func (t *Table) UpdateWhereTxn(tx TxnRef, pred func(sqltypes.Row) bool, set func(sqltypes.Row) sqltypes.Row) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	wc := t.writeCtxLocked(tx)
	defer t.finishWrite(wc)
	locs, err := t.matchLocked(pred, wc)
	if err != nil {
		return 0, err
	}
	updates := make([]sqltypes.Row, len(locs))
	for i, loc := range locs {
		row, ok := t.fetchRowViewLocked(loc, wc.asOf, wc.self)
		if !ok {
			continue
		}
		updates[i] = set(row.Clone())
		if err := t.CheckRow(updates[i]); err != nil {
			return 0, err
		}
	}
	n := 0
	for i, loc := range locs {
		if updates[i] == nil {
			continue
		}
		deleted, err := t.deleteAtLocked(loc, wc)
		if err != nil {
			return n, err
		}
		if !deleted {
			continue
		}
		if _, _, err := t.insertOpenLocked(t.coerceRow(updates[i]), wc); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// matchLocked scans the whole table row-at-a-time collecting locators of rows
// matching pred as seen by wc's snapshot. DML-path only; queries use the
// vectorized scan. Callers collect every locator before mutating, so the
// insert half of an update never lands in a store being scanned.
func (t *Table) matchLocked(pred func(sqltypes.Row) bool, wc writeCtx) ([]Locator, error) {
	var locs []Locator
	for _, g := range t.idx.Groups() {
		readers, err := t.groupReadersLocked(g)
		if err != nil {
			return nil, err
		}
		del := t.deletes.SnapshotView(g.ID, wc.asOf, wc.self)
		row := make(sqltypes.Row, t.Schema.Len())
		for i := 0; i < g.Rows; i++ {
			if del != nil && del.Get(i) {
				continue
			}
			for c, r := range readers {
				row[c] = r.Value(i)
			}
			if pred(row) {
				locs = append(locs, Locator{Group: g.ID, Tuple: i})
			}
		}
	}
	scanDelta := func(s *delta.Store) {
		s.ScanVisible(wc.asOf, wc.self, func(k uint64, row sqltypes.Row) {
			if pred(row) {
				locs = append(locs, Locator{InDelta: true, DeltaID: s.ID, Key: k})
			}
		})
	}
	for _, s := range t.closed {
		scanDelta(s)
	}
	for _, s := range t.moving {
		scanDelta(s)
	}
	scanDelta(t.open)
	return locs, nil
}

// Rows returns the live row count in the latest committed state: compressed
// minus deleted plus delta rows (provisional inserts excluded, tombstoned
// rows excluded).
func (t *Table) Rows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	stable := t.stableTSLocked()
	n := t.idx.Rows() - t.deletes.Count()
	t.eachDeltaLocked(func(s *delta.Store) { n += s.LiveRows(stable, 0) })
	return n
}

// Stats summarizes table state for monitoring and experiments.
type Stats struct {
	CompressedGroups int
	CompressedRows   int
	DeletedRows      int
	DeltaStores      int // open + closed + moving
	DeltaRows        int
	DiskBytes        int
	RawBytes         int
}

// Stat returns a snapshot of table statistics.
func (t *Table) Stat() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := Stats{
		CompressedGroups: len(t.idx.Groups()),
		CompressedRows:   t.idx.Rows(),
		DeletedRows:      t.deletes.Count(),
		DiskBytes:        t.idx.DiskBytes(),
		RawBytes:         t.idx.RawBytes(),
	}
	t.eachDeltaLocked(func(s *delta.Store) {
		st.DeltaStores++
		st.DeltaRows += s.Rows()
	})
	return st
}

// Sample draws up to n rows uniformly at random using bookmarks (§4.4):
// random positions in the logical row space resolve through locators, with
// deleted rows skipped. Positions are batched per row group so each sampled
// group's segments are opened (and decoded) once, not once per row. The rows
// are copies the caller may modify.
func (t *Table) Sample(n int, rng *rand.Rand) []sqltypes.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()

	// Build the position -> row space: compressed groups first, then the
	// visible delta rows.
	type span struct {
		rows  int
		group *colstore.RowGroup
		delta []sqltypes.Row
	}
	var spans []span
	total := 0
	for _, g := range t.idx.Groups() {
		spans = append(spans, span{rows: g.Rows, group: g})
		total += g.Rows
	}
	stable := t.stableTSLocked()
	t.eachDeltaLocked(func(s *delta.Store) {
		var rows []sqltypes.Row
		s.ScanVisible(stable, 0, func(_ uint64, row sqltypes.Row) { rows = append(rows, row) })
		if len(rows) > 0 {
			spans = append(spans, span{rows: len(rows), delta: rows})
			total += len(rows)
		}
	})
	if total == 0 {
		return nil
	}

	out := make([]sqltypes.Row, 0, n)
	readerCache := map[int][]*colstore.ColumnReader{}
	attempts := 0
	// Sample without replacement: a duplicate row would bias the distinct
	// estimators (a full-table draw with replacement misses ~1/e of rows).
	picked := make(map[int]bool, n)
	for len(out) < n && len(picked) < total && attempts < 4*n+100 {
		// Draw a batch of picks, grouped by span, then resolve span by span.
		want := n - len(out)
		bySpan := map[int][]int{}
		for i := 0; i < want; i++ {
			attempts++
			var pos int
			if n >= total {
				// The whole table fits in the sample: sweep every position
				// instead of waiting for rejection sampling to cover it.
				pos = attempts - 1
				if pos >= total {
					break
				}
			} else {
				pos = rng.Intn(total)
			}
			if picked[pos] {
				continue
			}
			picked[pos] = true
			for si := range spans {
				if pos < spans[si].rows {
					bySpan[si] = append(bySpan[si], pos)
					break
				}
				pos -= spans[si].rows
			}
		}
		// Resolve spans in index order so the rows that survive the final
		// truncation to n are a deterministic function of the rng stream
		// (map iteration order must not leak into statistics or goldens).
		spanOrder := make([]int, 0, len(bySpan))
		for si := range bySpan {
			spanOrder = append(spanOrder, si)
		}
		sort.Ints(spanOrder)
		for _, si := range spanOrder {
			positions := bySpan[si]
			sp := &spans[si]
			if sp.group == nil {
				for _, pos := range positions {
					out = append(out, sp.delta[pos].Clone())
				}
				continue
			}
			readers := readerCache[sp.group.ID]
			if readers == nil {
				var err error
				if readers, err = t.groupReadersLocked(sp.group); err != nil {
					continue
				}
				readerCache[sp.group.ID] = readers
			}
			for _, pos := range positions {
				if !t.deletes.IsDeleted(sp.group.ID, pos) {
					out = append(out, rowAt(readers, pos))
				}
			}
		}
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// --- Tuple mover (§4.3) ---

// MoveOnce compresses one CLOSED delta store into a row group, replaying any
// deletes that arrived during compression via the delete buffer. It reports
// whether a store was moved. Every outcome is recorded in the table's health
// struct (see Health); on failure the source store is re-queued so no rows
// are lost and a later retry can succeed.
func (t *Table) MoveOnce() (moved bool, err error) {
	defer func() {
		if err != nil {
			t.health.recordFailure(err)
		} else if moved {
			t.health.recordSuccess()
		}
	}()
	t.mu.Lock()
	// Settle first: commits since the last pass may have pushed the horizon
	// past this store's remaining version state. A store that still carries
	// versions (rows pinned by active snapshots or in-flight transactions)
	// cannot compress — row groups have no per-row versions — so skip it and
	// report nothing to move; the next pass retries after the horizon moves.
	t.settleLocked()
	pick := -1
	for i, s := range t.closed {
		if !s.Unsettled() {
			pick = i
			break
		}
	}
	if pick < 0 {
		t.mu.Unlock()
		return false, nil
	}
	s := t.closed[pick]
	t.closed = append(t.closed[:pick], t.closed[pick+1:]...)
	keys, rows, err := s.BeginMove()
	if err != nil {
		// BeginMove does not consume the store; re-queue it for retry.
		t.closed = append([]*delta.Store{s}, t.closed...)
		t.mu.Unlock()
		return false, err
	}
	t.moving[s.ID] = s
	t.mu.Unlock()

	if len(rows) == 0 {
		// Everything was deleted while the store sat closed; just drop it.
		t.mu.Lock()
		if werr := t.logWAL(&wal.Record{Type: wal.TDeltaDrop, A: uint64(s.ID)}); werr != nil {
			s.AbortMove()
			t.closed = append([]*delta.Store{s}, t.closed...)
			delete(t.moving, s.ID)
			t.mu.Unlock()
			return false, werr
		}
		delete(t.moving, s.ID)
		t.mu.Unlock()
		return true, nil
	}

	// Compression happens outside the table lock: inserts and queries
	// proceed concurrently (the paper's tuple mover does not block trickle
	// inserts). The built group is published under the table lock together
	// with the removal of the source delta store, so no snapshot can see the
	// same row twice. compressMu stays held through the publish so the WAL
	// publish record lands in build order (see the field comment).
	t.compressMu.Lock()
	bufs := colstore.BuffersFromRows(t.Schema, rows)
	g, perm, dicts, err := t.buildGroup(bufs)
	if err != nil {
		t.compressMu.Unlock()
		// Put the store back (and roll it back to CLOSED) so rows are not
		// lost and a later retry can move it.
		t.mu.Lock()
		delete(t.moving, s.ID)
		s.AbortMove()
		t.closed = append([]*delta.Store{s}, t.closed...)
		t.mu.Unlock()
		mMoverAborts.Inc()
		return false, err
	}

	// Inverse permutation: old position -> new tuple id.
	inv := make([]int, len(rows))
	if perm == nil {
		for i := range inv {
			inv[i] = i
		}
	} else {
		for newPos, oldPos := range perm {
			inv[oldPos] = newPos
		}
	}

	if t.moverTestHookAfterBuild != nil {
		t.moverTestHookAfterBuild()
	}

	t.mu.Lock()
	// Publishing strips the source store's version state, so every delete
	// that landed while we compressed must be settled (committed at or below
	// the horizon) before the group can go live — otherwise a pinned snapshot
	// would see the row vanish, or an uncommitted delete would become
	// permanent. If any buffered delete is still provisional or above the
	// horizon, put the store back and let a later pass retry; the built
	// group's blobs become orphans (recovery GCs them).
	t.settleLocked()
	h := t.horizonLocked()
	for _, bd := range s.PeekDeleteBuffer() {
		if bd.End != 0 && (bd.End&delta.TxnBit != 0 || bd.End > h) {
			delete(t.moving, s.ID)
			s.AbortMove()
			t.closed = append([]*delta.Store{s}, t.closed...)
			t.mu.Unlock()
			t.compressMu.Unlock()
			mMoverAborts.Inc()
			return false, nil
		}
	}
	// Deletes that landed while we compressed were acknowledged durably as
	// TDeltaDelete records; replay of the publish record drops the whole
	// delta store, so the buffered keys must survive as delete-bitmap
	// entries on the new group. They travel inside the publish record
	// itself — a separately-logged delete after a durable publish is a
	// crash window that resurrects acknowledged deletes.
	var pending []int
	for _, bd := range s.DrainDeleteBuffer() {
		i := sort.Search(len(keys), func(j int) bool { return keys[j] >= bd.Key })
		if i < len(keys) && keys[i] == bd.Key {
			pending = append(pending, inv[i])
		}
	}
	if werr := t.publishLocked(g, dicts, s.ID, pending); werr != nil {
		// The publish record never made it to the log; roll back like a
		// build failure. The group's blobs become orphans (recovery GCs
		// them; in-process they are unreachable but small). The drained
		// delete buffer is already reflected in the store's rows, so a
		// retry's BeginMove sees the post-delete row set.
		delete(t.moving, s.ID)
		s.AbortMove()
		t.closed = append([]*delta.Store{s}, t.closed...)
		t.mu.Unlock()
		t.compressMu.Unlock()
		mMoverAborts.Inc()
		return false, werr
	}
	delete(t.moving, s.ID)
	t.mu.Unlock()
	t.compressMu.Unlock()
	return true, nil
}

// MoveAll drains every closed delta store.
func (t *Table) MoveAll() error {
	for {
		moved, err := t.MoveOnce()
		if err != nil {
			return err
		}
		if !moved {
			return nil
		}
	}
}

// FlushOpen force-closes the open delta store (regardless of size) and moves
// everything — used by loads that want a fully compressed table.
func (t *Table) FlushOpen() error {
	t.mu.Lock()
	if t.open.Rows() > 0 {
		if err := t.closeOpenLocked(); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()
	return t.MoveAll()
}

// MoverJob returns the table's tuple mover as a scheduler job, kicked when
// a delta store closes. It is due on a kick or every interval, but after a
// failed move only once the health backoff has passed. A run is MoveAll.
func (t *Table) MoverJob(interval time.Duration) *sched.Job {
	j := &sched.Job{
		Name: "tuple mover " + t.Name,
		Due: func(now, last time.Time, kicked bool) time.Time {
			if b := t.health.snapshot(false).Backoff; b > 0 {
				return last.Add(b)
			}
			if kicked {
				return now
			}
			return last.Add(interval)
		},
		// A failed move is recorded in Health and sets the backoff.
		Run: func(context.Context) { _ = t.MoveAll() },
	}
	t.mover.Store(j)
	return j
}

// Mover returns the job MoverJob attached, or nil.
func (t *Table) Mover() *sched.Job { return t.mover.Load() }

// Rebuild recompresses the whole table (ALTER INDEX ... REBUILD in §4):
// deleted rows are physically removed, delta rows are folded into compressed
// row groups, and the delete bitmap empties. The table is locked for the
// duration (rebuild is an offline maintenance operation in this engine).
func (t *Table) Rebuild() error {
	// compressMu before t.mu: the table-wide lock order (see compressMu doc).
	t.compressMu.Lock()
	defer t.compressMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()

	// Rebuild flattens everything into version-free compressed groups, so it
	// cannot run while transactions hold provisional state or snapshots pin
	// unsettled versions.
	t.settleLocked()
	busy := len(t.txnPending) > 0 || t.deletes.AnyUnsettled()
	t.eachDeltaLocked(func(s *delta.Store) { busy = busy || s.Unsettled() })
	if busy {
		return ErrBusyTxns
	}

	// Gather the delta rows, then replace every compressed group with
	// groups holding its live rows plus those (compressMu is already held
	// for the whole rebuild).
	var deltaRows []sqltypes.Row
	t.eachDeltaLocked(func(s *delta.Store) {
		s.Scan(func(_ uint64, row sqltypes.Row) { deltaRows = append(deltaRows, row) })
	})
	if _, err := t.rewriteGroupsLocked(t.idx.Groups(), deltaRows); err != nil {
		return err
	}
	if err := t.logWAL(&wal.Record{Type: wal.TTableReset, A: uint64(t.deltaID + 1)}); err != nil {
		return err
	}
	t.open = t.newDeltaStoreLocked()
	t.closed = nil
	t.moving = make(map[int]*delta.Store)
	return nil
}

// MergeSmallGroups consolidates undersized compressed row groups (live rows
// below half the target row-group size) into full-size groups, dropping
// their delete-bitmap entries in the process. REORGANIZE runs it after
// draining delta stores; SQL Server gained the equivalent self-merge in the
// release after the paper as a natural extension of the tuple mover.
// It returns the number of groups merged away.
func (t *Table) MergeSmallGroups() (int, error) {
	t.compressMu.Lock()
	defer t.compressMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()

	// Merging rewrites groups without version state, so skip groups whose
	// delete sets are still in flux (recent or pending entries).
	t.settleLocked()
	half := t.Opts.RowGroupSize / 2
	var victims []*colstore.RowGroup
	for _, g := range t.idx.Groups() {
		if t.deletes.HasUnsettled(g.ID) {
			continue
		}
		live := g.Rows - t.deletes.DeletedInGroup(g.ID)
		if live < half {
			victims = append(victims, g)
		}
	}
	if len(victims) < 2 {
		return 0, nil
	}

	merged, err := t.rewriteGroupsLocked(victims, nil)
	if err != nil {
		return 0, err
	}
	return len(victims) - merged, nil
}

// rewriteGroupsLocked replaces groups with freshly compressed row groups
// holding their live rows followed by extra, in RowGroupSize chunks, and
// returns how many groups it published. Deleted rows are dropped along with
// the old groups' delete-bitmap entries. The replacements are built before
// anything is torn down, and each retire is logged before its blobs go away,
// so a crash in between only leaves orphan blob files (recovery GCs those),
// never a directory entry whose blobs are gone. The caller holds compressMu
// and t.mu.
func (t *Table) rewriteGroupsLocked(groups []*colstore.RowGroup, extra []sqltypes.Row) (int, error) {
	var rows []sqltypes.Row
	for _, g := range groups {
		readers, err := t.groupReadersLocked(g)
		if err != nil {
			return 0, err
		}
		del := t.deletes.Snapshot(g.ID)
		for i := 0; i < g.Rows; i++ {
			if del == nil || !del.Get(i) {
				rows = append(rows, rowAt(readers, i))
			}
		}
	}
	rows = append(rows, extra...)

	var built []*colstore.RowGroup
	var builtDicts [][]colstore.DictAppend
	for i := 0; i < len(rows); i += t.Opts.RowGroupSize {
		end := min(i+t.Opts.RowGroupSize, len(rows))
		g, _, dicts, err := t.buildGroup(colstore.BuffersFromRows(t.Schema, rows[i:end]))
		if err != nil {
			return 0, err
		}
		built = append(built, g)
		builtDicts = append(builtDicts, dicts)
	}

	for _, g := range groups {
		if err := t.logWAL(&wal.Record{Type: wal.TGroupRetire, A: uint64(g.ID)}); err != nil {
			return 0, err
		}
		t.idx.RemoveGroup(g.ID)
		t.deletes.DropGroup(g.ID)
	}
	for i, g := range built {
		if err := t.publishLocked(g, builtDicts[i], 0, nil); err != nil {
			return 0, err
		}
	}
	return len(built), nil
}

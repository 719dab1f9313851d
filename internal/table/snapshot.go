package table

import (
	"apollo/internal/bits"
	"apollo/internal/colstore"
	"apollo/internal/delta"
	"apollo/internal/sqltypes"
)

// Snapshot is a consistent read view of a table for the duration of a query:
// the compressed row groups that existed at snapshot time, per-group delete
// bitmaps frozen at snapshot time, and the delta rows visible at snapshot
// time. Scans built on a snapshot are unaffected by concurrent DML and the
// tuple mover: delta rows are never modified in place, so holding references
// to them is enough. A row group can appear while its source delta rows are
// also in the snapshot only if the mover published it after the snapshot was
// cut — impossible because the group list and delta list are read under one
// lock.
type Snapshot struct {
	Table   *Table
	Schema  *sqltypes.Schema
	AsOf    uint64 // resolved commit timestamp the snapshot reads at
	Groups  []*colstore.RowGroup
	Deletes map[int]*bits.Bitmap // nil entry = no deletes in that group
	Delta   []sqltypes.Row       // visible delta rows, shared read-only
}

// Snapshot captures a consistent view of the latest committed state.
func (t *Table) Snapshot() *Snapshot {
	return t.SnapshotView(ReadView{})
}

// SnapshotView captures a consistent view as seen by view: the snapshot at
// view.AsOf (zero = latest committed) including view.Self's own uncommitted
// writes. The visible delta rows are collected by reference into one slice;
// they are the delta stores' own rows and must be treated as read-only.
func (t *Table) SnapshotView(view ReadView) *Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	asOf := view.AsOf
	if asOf == 0 {
		asOf = t.stableTSLocked()
	}
	s := &Snapshot{
		Table:   t,
		Schema:  t.Schema,
		AsOf:    asOf,
		Groups:  t.idx.Groups(),
		Deletes: make(map[int]*bits.Bitmap),
	}
	for _, g := range s.Groups {
		if bm := t.deletes.SnapshotView(g.ID, asOf, view.Self); bm != nil {
			s.Deletes[g.ID] = bm
		}
	}

	n := 0
	t.eachDeltaLocked(func(d *delta.Store) { n += d.LiveRows(asOf, view.Self) })
	if n > 0 {
		s.Delta = make([]sqltypes.Row, 0, n)
		t.eachDeltaLocked(func(d *delta.Store) {
			d.ScanVisible(asOf, view.Self, func(_ uint64, row sqltypes.Row) {
				s.Delta = append(s.Delta, row)
			})
		})
	}
	return s
}

// OpenColumn opens a column reader for one of the snapshot's groups.
func (s *Snapshot) OpenColumn(g *colstore.RowGroup, col int) (*colstore.ColumnReader, error) {
	return s.Table.idx.OpenColumn(g, col)
}

// Rows returns the snapshot's live row count.
func (s *Snapshot) Rows() int {
	n := len(s.Delta)
	for _, g := range s.Groups {
		n += g.Rows
		if bm := s.Deletes[g.ID]; bm != nil {
			n -= bm.Count()
		}
	}
	return n
}

package delta

import (
	"errors"

	"apollo/internal/bits"
	"apollo/internal/sqltypes"
)

// Multiversioning (Hekaton-style, Larson et al.): every delta-store row and
// delete-bitmap entry carries begin/end fields that are either a commit
// timestamp or a provisional transaction id (high bit set). A version field
// of zero is "settled": the row was created (or never deleted) before every
// active snapshot, so readers need no check. The table layer settles
// versions lazily once they fall below the oldest active snapshot, keeping
// the version map sparse — a quiesced store carries no version state at all,
// which is also the tuple mover's precondition for compressing it.

// TxnBit marks a begin/end field as a provisional transaction id rather than
// a commit timestamp. Commit timestamps are small monotonic integers, so the
// high bit cleanly separates the two spaces.
const TxnBit = uint64(1) << 63

// MaxTS is the largest commit timestamp; a snapshot at MaxTS sees every
// committed version.
const MaxTS = TxnBit - 1

// ErrWriteConflict is the typed, retryable error for a write-write conflict:
// two transactions tried to delete or update the same row, or an autocommit
// statement targeted a row a still-pending transaction already wrote.
// Apollo resolves conflicts eagerly (first writer wins); the loser should
// roll back and retry against a fresh snapshot.
var ErrWriteConflict = errors.New("write-write conflict (retry the transaction)")

// RowVersion is the begin/end pair of one delta-store row. Begin zero means
// the row is settled-visible; End zero means not deleted. A nonzero field
// holds either a commit timestamp or, with TxnBit set, the id of the
// transaction that provisionally wrote it.
type RowVersion struct {
	Begin uint64
	End   uint64
}

// VisibleAt reports whether a row with this version is visible to a snapshot
// at asOf taken by transaction self (zero for autocommit readers): its begin
// must be committed at or before asOf or owned by self, and its end must not
// be.
func (v RowVersion) VisibleAt(asOf, self uint64) bool {
	if v.Begin != 0 {
		if v.Begin&TxnBit != 0 {
			if v.Begin != self {
				return false
			}
		} else if v.Begin > asOf {
			return false
		}
	}
	if v.End != 0 {
		if v.End&TxnBit != 0 {
			if v.End == self {
				return false
			}
		} else if v.End <= asOf {
			return false
		}
	}
	return true
}

// Settled reports whether the version carries no constraint a reader at or
// above horizon could observe: a committed begin at or below horizon and no
// deletion. Such entries can be dropped from the version map.
func (v RowVersion) settledBelow(horizon uint64) bool {
	return v.Begin&TxnBit == 0 && v.Begin <= horizon && v.End == 0
}

// MarkStatus is the outcome of a versioned delete attempt.
type MarkStatus uint8

const (
	// MarkOK: the delete was recorded.
	MarkOK MarkStatus = iota
	// MarkNotFound: the row is already deleted from the caller's own point
	// of view (its own earlier delete, or a delete invisible to it); skip.
	MarkNotFound
	// MarkConflict: another transaction deleted the row — either still
	// pending, or committed after the caller's snapshot. First writer wins.
	MarkConflict
)

// Version returns the row's version entry; a zero RowVersion means settled
// live.
func (s *Store) Version(key uint64) RowVersion {
	return s.vers[key]
}

// setVersion stores v for key, allocating the sparse map on first use.
func (s *Store) setVersion(key uint64, v RowVersion) {
	if s.vers == nil {
		s.vers = make(map[uint64]RowVersion)
	}
	s.vers[key] = v
}

// MarkDeleted deletes the row at key on behalf of self (a TxnBit-tagged
// transaction id, or zero for autocommit) reading at snapshot asOf. end is
// what the row's end field becomes: zero physically removes the row at once
// (autocommit with no active snapshots), a commit timestamp leaves a
// tombstone for Purge to collect, a transaction id leaves a provisional mark
// that commit or abort resolves. A row deleted at or before asOf is simply
// not found; a row another transaction wrote after asOf (or holds pending)
// is a conflict — first writer wins.
func (s *Store) MarkDeleted(key, end, self, asOf uint64) MarkStatus {
	if st := s.CheckDelete(key, self, asOf); st != MarkOK {
		return st
	}
	if end == 0 {
		s.remove(key)
		if s.state == Moving {
			s.deleteBuffer = append(s.deleteBuffer, BufferedDelete{Key: key})
		}
		return MarkOK
	}
	v := s.vers[key]
	v.End = end
	s.setVersion(key, v)
	if s.state == Moving {
		s.deleteBuffer = append(s.deleteBuffer, BufferedDelete{Key: key, End: end})
	}
	return MarkOK
}

// CheckDelete is the non-mutating probe behind MarkDeleted: the table layer
// validates a delete (and logs its WAL record) before applying the mark, all
// under the table lock, so a WAL append failure never leaves an applied but
// unlogged delete and a conflict never leaves a logged but unapplied one.
func (s *Store) CheckDelete(key, self, asOf uint64) MarkStatus {
	if s.find(key) < 0 {
		return MarkNotFound
	}
	v := s.vers[key]
	if v.End != 0 {
		if v.End == self {
			return MarkNotFound
		}
		if v.End&TxnBit != 0 {
			return MarkConflict // pending delete by another transaction
		}
		if v.End <= asOf {
			return MarkNotFound // deleted before my snapshot; nothing to do
		}
		return MarkConflict // deleted after my snapshot
	}
	if v.Begin != 0 {
		if v.Begin&TxnBit != 0 && v.Begin != self {
			return MarkConflict // uncommitted insert by another transaction
		}
		if v.Begin&TxnBit == 0 && v.Begin > asOf {
			return MarkConflict // inserted after my snapshot
		}
	}
	return MarkOK
}

// CommitInsert flips a provisional insert to committed at cts.
func (s *Store) CommitInsert(key, cts uint64) {
	v, ok := s.vers[key]
	if !ok || v.Begin&TxnBit == 0 {
		return
	}
	v.Begin = cts
	s.setVersion(key, v)
}

// CommitDelete flips a provisional delete to committed at cts, updating any
// buffered copy the tuple mover holds.
func (s *Store) CommitDelete(key, cts uint64) {
	v, ok := s.vers[key]
	if !ok || v.End&TxnBit == 0 {
		return
	}
	v.End = cts
	s.setVersion(key, v)
	s.resolveBuffered(key, cts, false)
}

// AbortInsert removes a provisional insert entirely.
func (s *Store) AbortInsert(key uint64) {
	v, ok := s.vers[key]
	if !ok || v.Begin&TxnBit == 0 {
		return
	}
	s.remove(key)
}

// AbortDelete clears a provisional delete, resurrecting the row for its
// owner's peers and dropping any buffered copy the tuple mover holds.
func (s *Store) AbortDelete(key uint64) {
	v, ok := s.vers[key]
	if !ok || v.End&TxnBit == 0 {
		return
	}
	v.End = 0
	if v.Begin == 0 {
		delete(s.vers, key)
	} else {
		s.setVersion(key, v)
	}
	s.resolveBuffered(key, 0, true)
}

// resolveBuffered updates (or drops) the Moving-store delete-buffer entry
// for key when its owning transaction resolves.
func (s *Store) resolveBuffered(key, newEnd uint64, drop bool) {
	if s.state != Moving {
		return
	}
	for i := range s.deleteBuffer {
		if s.deleteBuffer[i].Key == key {
			if drop {
				s.deleteBuffer = append(s.deleteBuffer[:i], s.deleteBuffer[i+1:]...)
			} else {
				s.deleteBuffer[i].End = newEnd
			}
			return
		}
	}
}

// Purge physically collects version state that no snapshot at or above
// horizon can distinguish: committed tombstones at or below horizon lose
// their rows, committed-live entries at or below horizon lose their map
// entries. Provisional state and anything above horizon is kept.
func (s *Store) Purge(horizon uint64) {
	for key, v := range s.vers {
		if v.End != 0 && v.End&TxnBit == 0 && v.End <= horizon {
			s.remove(key)
			continue
		}
		if v.settledBelow(horizon) {
			delete(s.vers, key)
		}
	}
}

// Unsettled reports whether the store still carries version state — rows a
// snapshot-relative reader sees differently from the latest state. The tuple
// mover refuses to compress unsettled stores (compressed row groups have no
// per-row versions).
func (s *Store) Unsettled() bool { return len(s.vers) > 0 }

// ScanVisible calls fn for each row visible to a snapshot at asOf taken by
// self, in ascending key order.
func (s *Store) ScanVisible(asOf, self uint64, fn func(key uint64, row sqltypes.Row)) {
	for i, row := range s.rows {
		if row == nil {
			continue
		}
		if len(s.vers) > 0 {
			if v, ok := s.vers[s.keys[i]]; ok && !v.VisibleAt(asOf, self) {
				continue
			}
		}
		fn(s.keys[i], row)
	}
}

// LiveRows counts rows visible to a snapshot at asOf taken by self.
func (s *Store) LiveRows(asOf, self uint64) int {
	n := s.live
	for _, v := range s.vers {
		if !v.VisibleAt(asOf, self) {
			n--
		}
	}
	return n
}

// DumpVersions iterates the store's version entries (checkpoint image
// writer). Order is unspecified.
func (s *Store) DumpVersions(fn func(key uint64, v RowVersion)) {
	for k, v := range s.vers {
		fn(k, v)
	}
}

// RestoreVersion reinstates a version entry (image restore path).
func (s *Store) RestoreVersion(key uint64, v RowVersion) {
	if v == (RowVersion{}) {
		delete(s.vers, key)
		return
	}
	s.setVersion(key, v)
}

// --- Delete-bitmap versioning ---------------------------------------------

// gt keys a (row group, tuple) delete-bitmap entry.
type gt struct {
	group, tuple int
}

// PendingDelete is one provisional delete-bitmap entry (checkpoint image
// exchange format).
type PendingDelete struct {
	Group, Tuple int
	Owner        uint64
}

// MarkDeleted deletes compressed-row (group, tuple) on behalf of self with
// the same end semantics as Store.MarkDeleted: end zero sets the base bitmap
// directly, a commit timestamp records a recent (unsettled) delete, a
// transaction id records a pending one. asOf is the caller's snapshot, used
// to tell "already deleted before I looked" (skip) from "deleted after my
// snapshot" (conflict).
func (d *DeleteBitmap) MarkDeleted(group, tuple int, end, self, asOf uint64) MarkStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	k := gt{group, tuple}
	if st := d.checkLocked(k, self, asOf); st != MarkOK {
		return st
	}
	switch {
	case end == 0:
		d.setLocked(group, tuple)
	case end&TxnBit != 0:
		if d.pending == nil {
			d.pending = make(map[gt]uint64)
		}
		d.pending[k] = end
	default:
		if d.recent == nil {
			d.recent = make(map[gt]uint64)
		}
		d.recent[k] = end
	}
	return MarkOK
}

// CheckDelete is the non-mutating probe behind the bitmap's MarkDeleted; see
// Store.CheckDelete for why the table layer probes before logging.
func (d *DeleteBitmap) CheckDelete(group, tuple int, self, asOf uint64) MarkStatus {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.checkLocked(gt{group, tuple}, self, asOf)
}

func (d *DeleteBitmap) checkLocked(k gt, self, asOf uint64) MarkStatus {
	if bm := d.perGroup[k.group]; bm != nil && bm.Get(k.tuple) {
		return MarkNotFound
	}
	if owner, ok := d.pending[k]; ok {
		if owner == self {
			return MarkNotFound
		}
		return MarkConflict
	}
	if ts, ok := d.recent[k]; ok {
		if ts <= asOf {
			return MarkNotFound
		}
		return MarkConflict
	}
	return MarkOK
}

// CommitPending flips a pending delete to a recent (committed) one at cts.
func (d *DeleteBitmap) CommitPending(group, tuple int, cts uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	k := gt{group, tuple}
	if _, ok := d.pending[k]; !ok {
		return
	}
	delete(d.pending, k)
	if bm := d.perGroup[group]; bm != nil && bm.Get(tuple) {
		// Already settled (recovery replayed the delete physically before
		// replaying the commit that finalizes the image's pending entry).
		return
	}
	if d.recent == nil {
		d.recent = make(map[gt]uint64)
	}
	d.recent[k] = cts
}

// AbortPending drops a pending delete.
func (d *DeleteBitmap) AbortPending(group, tuple int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.pending, gt{group, tuple})
}

// Settle folds recent deletes committed at or below horizon into the base
// bitmap, where snapshot views no longer need to version-check them.
func (d *DeleteBitmap) Settle(horizon uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for k, ts := range d.recent {
		if ts <= horizon {
			d.setLocked(k.group, k.tuple)
			delete(d.recent, k)
		}
	}
}

// setLocked sets (group, tuple) in the base bitmap. Caller holds d.mu.
func (d *DeleteBitmap) setLocked(group, tuple int) {
	bm := d.perGroup[group]
	if bm == nil {
		bm = bits.New(tuple + 1)
		d.perGroup[group] = bm
	}
	if !bm.Get(tuple) {
		bm.Set(tuple)
		d.count++
	}
}

// SnapshotView returns the group's deleted set as seen by a snapshot at asOf
// taken by self: the base bitmap plus recent deletes committed at or before
// asOf plus self's own pending deletes. Returns nil when empty.
func (d *DeleteBitmap) SnapshotView(group int, asOf, self uint64) *bits.Bitmap {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out *bits.Bitmap
	if bm := d.perGroup[group]; bm != nil && bm.Any() {
		out = bm.Clone()
	}
	for k, ts := range d.recent {
		if k.group == group && ts <= asOf {
			if out == nil {
				out = bits.New(k.tuple + 1)
			}
			out.Set(k.tuple)
		}
	}
	if self != 0 {
		for k, owner := range d.pending {
			if k.group == group && owner == self {
				if out == nil {
					out = bits.New(k.tuple + 1)
				}
				out.Set(k.tuple)
			}
		}
	}
	return out
}

// IsDeletedAt reports whether (group, tuple) is deleted as seen by a
// snapshot at asOf taken by self.
func (d *DeleteBitmap) IsDeletedAt(group, tuple int, asOf, self uint64) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if bm := d.perGroup[group]; bm != nil && bm.Get(tuple) {
		return true
	}
	k := gt{group, tuple}
	if ts, ok := d.recent[k]; ok && ts <= asOf {
		return true
	}
	if owner, ok := d.pending[k]; ok && owner == self && self != 0 {
		return true
	}
	return false
}

// HasUnsettled reports whether the group carries recent or pending entries
// (the group merger skips such groups; their delete sets are still in flux).
func (d *DeleteBitmap) HasUnsettled(group int) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for k := range d.recent {
		if k.group == group {
			return true
		}
	}
	for k := range d.pending {
		if k.group == group {
			return true
		}
	}
	return false
}

// AnyUnsettled reports whether any group carries recent or pending entries.
func (d *DeleteBitmap) AnyUnsettled() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.recent) > 0 || len(d.pending) > 0
}

// DumpPending returns the provisional entries (checkpoint image writer).
func (d *DeleteBitmap) DumpPending() []PendingDelete {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]PendingDelete, 0, len(d.pending))
	for k, owner := range d.pending {
		out = append(out, PendingDelete{Group: k.group, Tuple: k.tuple, Owner: owner})
	}
	return out
}

// RestorePending reinstates a provisional entry (image restore path).
func (d *DeleteBitmap) RestorePending(group, tuple int, owner uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pending == nil {
		d.pending = make(map[gt]uint64)
	}
	d.pending[gt{group, tuple}] = owner
}

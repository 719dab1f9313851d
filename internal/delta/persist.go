package delta

import (
	"slices"

	"apollo/internal/bits"
	"apollo/internal/sqltypes"
)

// Durability hooks. The WAL logs delta mutations as (store id, tuple key,
// encoded row); recovery decodes each row once and replays it through the
// Restore* methods below, which bypass lifecycle checks — replay
// reconstructs history, including inserts into stores that were later
// closed.

// RestoreRow puts row at key, bumping the key counter past it. Idempotent
// under re-replay: a key already present is overwritten. The store keeps row.
func (s *Store) RestoreRow(key uint64, row sqltypes.Row) {
	i, ok := slices.BinarySearch(s.keys, key)
	if ok {
		if s.rows[i] == nil {
			s.live++
		}
		s.rows[i] = row
	} else {
		s.keys = slices.Insert(s.keys, i, key)
		s.rows = slices.Insert(s.rows, i, row)
		s.live++
	}
	if key >= s.nextKey {
		s.nextKey = key + 1
	}
}

// RestoreDelete removes a key without delete-buffer side effects.
func (s *Store) RestoreDelete(key uint64) { s.remove(key) }

// SetState forces the lifecycle state (restore path).
func (s *Store) SetState(st State) { s.state = st }

// NextKey returns the key the next insert will receive.
func (s *Store) NextKey() uint64 { return s.nextKey }

// SetNextKey forces the next insert key (restore path; keys already consumed
// by rows that were since deleted must stay consumed, or replayed deletes
// would hit re-used keys).
func (s *Store) SetNextKey(k uint64) {
	if k > s.nextKey {
		s.nextKey = k
	}
}

// Dump returns each group's delete-bitmap words, trailing zero words
// trimmed. Groups with no set bits are omitted. Recent (committed but
// unsettled) deletes are folded in: recovery restores into a world with no
// active snapshots, so the settled/recent distinction does not survive an
// image. Pending (provisional) deletes are NOT included — the image writer
// dumps them separately via DumpPending.
func (d *DeleteBitmap) Dump() map[int][]uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	merged := make(map[int]*bits.Bitmap, len(d.perGroup))
	for g, bm := range d.perGroup {
		merged[g] = bm.Clone()
	}
	for k := range d.recent {
		bm := merged[k.group]
		if bm == nil {
			bm = bits.New(k.tuple + 1)
			merged[k.group] = bm
		}
		bm.Set(k.tuple)
	}
	out := make(map[int][]uint64, len(merged))
	for g, bm := range merged {
		words := append([]uint64(nil), bm.Words()...)
		for len(words) > 0 && words[len(words)-1] == 0 {
			words = words[:len(words)-1]
		}
		if len(words) > 0 {
			out[g] = words
		}
	}
	return out
}

// Restore replaces the bitmap's contents from a Dump.
func (d *DeleteBitmap) Restore(groups map[int][]uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.perGroup = make(map[int]*bits.Bitmap, len(groups))
	d.count = 0
	d.recent = nil
	d.pending = nil
	for g, words := range groups {
		bm := bits.FromWords(append([]uint64(nil), words...))
		d.perGroup[g] = bm
		d.count += bm.Count()
	}
}

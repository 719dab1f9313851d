// Package delta implements the row-organized side of an updatable clustered
// columnstore (§4): delta stores that absorb trickle inserts until they are
// large enough to compress, and the delete bitmap that marks rows of
// compressed row groups as logically deleted. A delta store being drained by
// the tuple mover keeps accepting deletes through a delete buffer that is
// applied to the new compressed row group afterwards.
//
// The paper's delta stores are B-trees. Here tuple keys come from a
// per-store counter, so inserts only ever append at the right edge; a store
// is two parallel slices — ascending keys and decoded rows — looked up by
// binary search, with removed slots compacted away once they outnumber the
// live rows.
package delta

import (
	"fmt"
	"slices"

	"apollo/internal/sqltypes"
)

// State is the lifecycle state of a delta store.
type State uint8

// Delta store states, following the row-group lifecycle of §4.1.
const (
	Open   State = iota // accepting inserts
	Closed              // full; waiting for the tuple mover
	Moving              // being compressed; deletes go to the delete buffer
)

func (s State) String() string {
	switch s {
	case Open:
		return "OPEN"
	case Closed:
		return "CLOSED"
	default:
		return "MOVING"
	}
}

// BufferedDelete is one delete recorded while a store is Moving. End carries
// the deleted row's end field: zero for a settled delete, a commit timestamp
// for a committed-but-unsettled one, a TxnBit-tagged id for a provisional
// one. The tuple mover only publishes once every buffered End is settled
// below the snapshot horizon, so published delete-bitmap entries never need
// versions.
type BufferedDelete struct {
	Key uint64
	End uint64
}

// compactMinDead is the fewest removed slots a store compacts away; below it
// a compaction costs more than walking the dead slots.
const compactMinDead = 64

// Store is one delta store: rows keyed by a monotonically increasing tuple
// key. It is not internally synchronized; the table layer serializes access.
//
// Rows are owned by the store and shared read-only with snapshots and scans:
// nothing may modify a row after inserting it or after reading it back.
type Store struct {
	ID int

	// keys ascend; rows[i] is the row at keys[i], nil once removed. live
	// counts the non-nil slots.
	keys    []uint64
	rows    []sqltypes.Row
	live    int
	nextKey uint64
	state   State

	// vers holds the begin/end version fields of rows that are not settled:
	// provisionally written, committed above the snapshot horizon, or
	// tombstoned awaiting purge. Rows absent from it are settled live.
	vers map[uint64]RowVersion

	// deleteBuffer records keys deleted while the store is Moving; the tuple
	// mover translates them into delete-bitmap entries on the new row group.
	deleteBuffer []BufferedDelete
}

// NewStore creates an empty, open delta store.
func NewStore(id int) *Store {
	return &Store{ID: id, state: Open}
}

// State returns the store's lifecycle state.
func (s *Store) State() State { return s.state }

// Close transitions Open -> Closed (no more inserts).
func (s *Store) Close() {
	if s.state == Open {
		s.state = Closed
	}
}

// BeginMove transitions Closed -> Moving and returns the rows to compress in
// ascending key order alongside their keys. The slices are copies: deletes
// that land while the mover compresses may compact the store's own.
func (s *Store) BeginMove() (keys []uint64, rows []sqltypes.Row, err error) {
	if s.state != Closed {
		return nil, nil, fmt.Errorf("delta: BeginMove on %v store", s.state)
	}
	if len(s.vers) > 0 {
		// Compressed row groups carry no per-row versions, so a store can
		// only move once every row in it is settled (purged below the
		// oldest active snapshot). The tuple mover checks this and retries.
		return nil, nil, fmt.Errorf("delta: BeginMove on store with %d unsettled row versions", len(s.vers))
	}
	s.state = Moving
	s.deleteBuffer = s.deleteBuffer[:0]
	keys = make([]uint64, 0, s.live)
	rows = make([]sqltypes.Row, 0, s.live)
	s.Scan(func(k uint64, row sqltypes.Row) {
		keys = append(keys, k)
		rows = append(rows, row)
	})
	return keys, rows, nil
}

// AbortMove transitions Moving -> Closed after a failed compression so the
// tuple mover can retry the store later. Deletes that arrived while Moving
// were already applied to the store, so a retry's BeginMove sees the current
// row set; the delete buffer is discarded (BeginMove resets it anyway).
func (s *Store) AbortMove() {
	if s.state == Moving {
		s.state = Closed
	}
}

// DrainDeleteBuffer returns deletes recorded while Moving and resets the
// buffer.
func (s *Store) DrainDeleteBuffer() []BufferedDelete {
	out := append([]BufferedDelete(nil), s.deleteBuffer...)
	s.deleteBuffer = s.deleteBuffer[:0]
	return out
}

// PeekDeleteBuffer returns the buffered deletes without draining them.
func (s *Store) PeekDeleteBuffer() []BufferedDelete { return s.deleteBuffer }

// InsertAt appends row and returns its key. Only Open stores accept inserts.
// begin is the row's begin field: zero for a settled autocommit insert (no
// concurrent snapshots), a commit timestamp for an autocommit insert that
// concurrent snapshots must not see, or a TxnBit-tagged transaction id for a
// provisional insert. The store keeps row; the caller must not modify it.
func (s *Store) InsertAt(row sqltypes.Row, begin uint64) (uint64, error) {
	if s.state != Open {
		return 0, fmt.Errorf("delta: insert into %v store", s.state)
	}
	key := s.nextKey
	s.nextKey++
	s.keys = append(s.keys, key)
	s.rows = append(s.rows, row)
	s.live++
	if begin != 0 {
		s.setVersion(key, RowVersion{Begin: begin})
	}
	return key, nil
}

// find returns the slot holding key, or -1 when the key is absent or removed.
func (s *Store) find(key uint64) int {
	i, ok := slices.BinarySearch(s.keys, key)
	if !ok || s.rows[i] == nil {
		return -1
	}
	return i
}

// remove physically drops the row at key, if present, with its version
// entry. Once removed slots outnumber the live rows (and there are at least
// compactMinDead of them) both slices are compacted in place, so a store
// cycling a few live rows through many updates does not accumulate dead
// slots for every scan to walk.
func (s *Store) remove(key uint64) {
	i := s.find(key)
	if i < 0 {
		return
	}
	s.rows[i] = nil
	s.live--
	delete(s.vers, key)
	if dead := len(s.rows) - s.live; dead >= compactMinDead && dead > s.live {
		n := 0
		for j, row := range s.rows {
			if row != nil {
				s.keys[n], s.rows[n] = s.keys[j], row
				n++
			}
		}
		clear(s.rows[n:])
		s.keys, s.rows = s.keys[:n], s.rows[:n]
	}
}

// Get returns the row with the given key. The row is the store's own.
func (s *Store) Get(key uint64) (sqltypes.Row, bool) {
	i := s.find(key)
	if i < 0 {
		return nil, false
	}
	return s.rows[i], true
}

// Scan calls fn for each (key, row) in ascending key order, ignoring row
// versions.
func (s *Store) Scan(fn func(key uint64, row sqltypes.Row)) {
	for i, row := range s.rows {
		if row != nil {
			fn(s.keys[i], row)
		}
	}
}

// Rows returns the number of rows physically present (tombstoned and
// provisional rows included).
func (s *Store) Rows() int { return s.live }

package table

import (
	"encoding/binary"
	"fmt"
	"sort"

	"apollo/internal/colstore"
	"apollo/internal/delta"
	"apollo/internal/encoding"
	"apollo/internal/sqltypes"
)

// Checkpoint image of one table's state. The image captures everything the
// WAL would otherwise have to replay: delta-store contents (rows encoded with
// the WAL's row codec), the delete bitmap, the row-group directory, and the
// primary dictionaries.
// Segment payload blobs are NOT in the image — they live as blob files in
// the store's disk backing and the directory references them by id.

const (
	imgStateOpen   byte = 0
	imgStateClosed byte = 1
)

// MarshalState serializes the table's mutable state under the table lock.
// Records logged before this call are fully reflected; records logged after
// are not — the checkpoint protocol replays them idempotently.
func (t *Table) MarshalState() []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()

	dst := binary.AppendUvarint(nil, uint64(t.deltaID))

	// Delta stores: the open store first, then closed and moving (moving
	// stores image as CLOSED — their in-flight build is not durable until
	// its publish record is, and recovery re-moves them).
	dst = binary.AppendUvarint(dst, uint64(1+len(t.closed)+len(t.moving)))
	var enc []byte // one row's encoding, reused across rows
	t.eachDeltaLocked(func(s *delta.Store) {
		state := imgStateClosed
		if s == t.open {
			state = imgStateOpen
		}
		dst = binary.AppendUvarint(dst, uint64(s.ID))
		dst = append(dst, state)
		dst = binary.AppendUvarint(dst, s.NextKey())
		dst = binary.AppendUvarint(dst, uint64(s.Rows()))
		s.Scan(func(key uint64, row sqltypes.Row) {
			dst = binary.AppendUvarint(dst, key)
			enc = sqltypes.EncodeRow(enc[:0], t.Schema, row)
			dst = binary.AppendUvarint(dst, uint64(len(enc)))
			dst = append(dst, enc...)
		})
	})

	// Delete bitmap, group ids sorted for a deterministic image.
	dump := t.deletes.Dump()
	gids := make([]int, 0, len(dump))
	for g := range dump {
		gids = append(gids, g)
	}
	sort.Ints(gids)
	dst = binary.AppendUvarint(dst, uint64(len(gids)))
	for _, g := range gids {
		words := dump[g]
		dst = binary.AppendUvarint(dst, uint64(g))
		dst = binary.AppendUvarint(dst, uint64(len(words)))
		for _, w := range words {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
	}

	// Row-group directory.
	groups := t.idx.Groups()
	dst = binary.AppendUvarint(dst, uint64(len(groups)))
	for _, g := range groups {
		dst = colstore.AppendRowGroup(dst, g)
	}
	dst = binary.AppendUvarint(dst, uint64(t.idx.NextGroupID()))

	// Primary dictionaries.
	for c := range t.Schema.Cols {
		d := t.idx.Primary(c)
		if d == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = d.Marshal(dst)
	}

	// Row-version entries of unsettled delta rows (provisional writes of
	// in-flight transactions, commits above the snapshot horizon, tombstones
	// awaiting purge), sorted for a deterministic image. Restore re-derives
	// the per-transaction intent index from the TxnBit-tagged fields, so
	// provisional state needs no separate section.
	type verEnt struct {
		storeID int
		key     uint64
		v       delta.RowVersion
	}
	var vers []verEnt
	t.eachDeltaLocked(func(s *delta.Store) {
		s.DumpVersions(func(key uint64, v delta.RowVersion) {
			vers = append(vers, verEnt{storeID: s.ID, key: key, v: v})
		})
	})
	sort.Slice(vers, func(i, j int) bool {
		if vers[i].storeID != vers[j].storeID {
			return vers[i].storeID < vers[j].storeID
		}
		return vers[i].key < vers[j].key
	})
	dst = binary.AppendUvarint(dst, uint64(len(vers)))
	for _, e := range vers {
		dst = binary.AppendUvarint(dst, uint64(e.storeID))
		dst = binary.AppendUvarint(dst, e.key)
		dst = binary.AppendUvarint(dst, e.v.Begin)
		dst = binary.AppendUvarint(dst, e.v.End)
	}

	// Provisional delete-bitmap entries (the committed ones were folded into
	// the base bitmap by Dump above).
	pend := t.deletes.DumpPending()
	sort.Slice(pend, func(i, j int) bool {
		if pend[i].Group != pend[j].Group {
			return pend[i].Group < pend[j].Group
		}
		return pend[i].Tuple < pend[j].Tuple
	})
	dst = binary.AppendUvarint(dst, uint64(len(pend)))
	for _, p := range pend {
		dst = binary.AppendUvarint(dst, uint64(p.Group))
		dst = binary.AppendUvarint(dst, uint64(p.Tuple))
		dst = binary.AppendUvarint(dst, p.Owner)
	}
	return dst
}

// RestoreState rebuilds the table's mutable state from a MarshalState image.
// The table must be freshly created (New) with the same schema and options.
func (t *Table) RestoreState(buf []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()

	pos := 0
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("table %s: truncated state image", t.Name)
		}
		pos += n
		return v, nil
	}

	deltaID, err := uv()
	if err != nil {
		return err
	}
	t.deltaID = int(deltaID)

	nstores, err := uv()
	if err != nil {
		return err
	}
	if nstores == 0 || nstores > 1<<20 {
		return fmt.Errorf("table %s: bad delta store count %d", t.Name, nstores)
	}
	t.open = nil
	t.closed = nil
	t.moving = make(map[int]*delta.Store)
	for i := uint64(0); i < nstores; i++ {
		id, err := uv()
		if err != nil {
			return err
		}
		if pos >= len(buf) {
			return fmt.Errorf("table %s: truncated state image", t.Name)
		}
		state := buf[pos]
		pos++
		nextKey, err := uv()
		if err != nil {
			return err
		}
		nrows, err := uv()
		if err != nil {
			return err
		}
		s := delta.NewStore(int(id))
		for j := uint64(0); j < nrows; j++ {
			key, err := uv()
			if err != nil {
				return err
			}
			l, err := uv()
			if err != nil {
				return err
			}
			if l > uint64(len(buf)-pos) {
				return fmt.Errorf("table %s: truncated delta row in image", t.Name)
			}
			row, _, err := sqltypes.DecodeRow(buf[pos:pos+int(l)], t.Schema)
			if err != nil {
				return fmt.Errorf("table %s: delta row %d/%d in image: %w", t.Name, id, key, err)
			}
			s.RestoreRow(key, row)
			pos += int(l)
		}
		s.SetNextKey(nextKey)
		switch state {
		case imgStateOpen:
			if t.open != nil {
				return fmt.Errorf("table %s: two open delta stores in image", t.Name)
			}
			t.open = s
		case imgStateClosed:
			s.SetState(delta.Closed)
			t.closed = append(t.closed, s)
		default:
			return fmt.Errorf("table %s: bad delta state %d in image", t.Name, state)
		}
	}
	if t.open == nil {
		return fmt.Errorf("table %s: no open delta store in image", t.Name)
	}

	ngroupsDel, err := uv()
	if err != nil {
		return err
	}
	if ngroupsDel > 1<<20 {
		return fmt.Errorf("table %s: bad delete-bitmap group count", t.Name)
	}
	delDump := make(map[int][]uint64, ngroupsDel)
	for i := uint64(0); i < ngroupsDel; i++ {
		g, err := uv()
		if err != nil {
			return err
		}
		nwords, err := uv()
		if err != nil {
			return err
		}
		if nwords > uint64(len(buf)-pos)/8 {
			return fmt.Errorf("table %s: truncated delete bitmap in image", t.Name)
		}
		words := make([]uint64, nwords)
		for j := range words {
			words[j] = binary.LittleEndian.Uint64(buf[pos:])
			pos += 8
		}
		delDump[int(g)] = words
	}
	t.deletes.Restore(delDump)

	ngroups, err := uv()
	if err != nil {
		return err
	}
	if ngroups > 1<<24 {
		return fmt.Errorf("table %s: bad row-group count", t.Name)
	}
	for i := uint64(0); i < ngroups; i++ {
		g, n, err := colstore.ReadRowGroup(buf[pos:])
		if err != nil {
			return fmt.Errorf("table %s: %w", t.Name, err)
		}
		pos += n
		t.idx.RestoreGroup(g)
	}
	nextGroupID, err := uv()
	if err != nil {
		return err
	}
	t.idx.SetNextGroupID(int(nextGroupID))

	for c := range t.Schema.Cols {
		if pos >= len(buf) {
			return fmt.Errorf("table %s: truncated dictionaries in image", t.Name)
		}
		present := buf[pos]
		pos++
		if present == 0 {
			continue
		}
		d, n, err := encoding.UnmarshalDict(buf[pos:])
		if err != nil {
			return fmt.Errorf("table %s: %w", t.Name, err)
		}
		pos += n
		t.idx.RestorePrimary(c, d)
	}
	// Row-version entries; TxnBit-tagged fields rebuild the per-transaction
	// intent index so recovery can finalize or roll the owners back.
	t.txnPending = nil
	byID := make(map[int]*delta.Store, 1+len(t.closed))
	byID[t.open.ID] = t.open
	for _, s := range t.closed {
		byID[s.ID] = s
	}
	nvers, err := uv()
	if err != nil {
		return err
	}
	if nvers > 1<<28 {
		return fmt.Errorf("table %s: bad row-version count", t.Name)
	}
	for i := uint64(0); i < nvers; i++ {
		sid, err := uv()
		if err != nil {
			return err
		}
		key, err := uv()
		if err != nil {
			return err
		}
		begin, err := uv()
		if err != nil {
			return err
		}
		end, err := uv()
		if err != nil {
			return err
		}
		s := byID[int(sid)]
		if s == nil {
			return fmt.Errorf("table %s: row version for unknown delta store %d", t.Name, sid)
		}
		s.RestoreVersion(key, delta.RowVersion{Begin: begin, End: end})
		if begin&delta.TxnBit != 0 {
			t.addIntentLocked(begin, intent{kind: intentInsert, deltaID: int(sid), key: key})
		}
		if end&delta.TxnBit != 0 {
			t.addIntentLocked(end, intent{kind: intentDeltaDelete, deltaID: int(sid), key: key})
		}
	}

	npend, err := uv()
	if err != nil {
		return err
	}
	if npend > 1<<28 {
		return fmt.Errorf("table %s: bad pending-delete count", t.Name)
	}
	for i := uint64(0); i < npend; i++ {
		g, err := uv()
		if err != nil {
			return err
		}
		tu, err := uv()
		if err != nil {
			return err
		}
		owner, err := uv()
		if err != nil {
			return err
		}
		t.deletes.RestorePending(int(g), int(tu), owner)
		t.addIntentLocked(owner, intent{kind: intentBitmapDelete, group: int(g), tuple: int(tu)})
	}

	if pos != len(buf) {
		return fmt.Errorf("table %s: %d trailing bytes in state image", t.Name, len(buf)-pos)
	}
	return nil
}

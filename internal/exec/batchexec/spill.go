package batchexec

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"apollo/internal/encoding"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/vector"
)

// Tracker is a memory grant (§5): hash operators reserve against it and spill
// partitions to the storage substrate when the grant is exhausted, degrading
// gracefully instead of failing the query.
type Tracker struct {
	budget int64 // <= 0 means unlimited
	used   atomic.Int64
	spills atomic.Int64
}

// NewTracker creates a tracker with the given budget in bytes (0 = unlimited).
func NewTracker(budget int64) *Tracker { return &Tracker{budget: budget} }

// TryReserve reserves n bytes, reporting false when the grant is exceeded.
func (t *Tracker) TryReserve(n int64) bool {
	if t == nil || t.budget <= 0 {
		return true
	}
	if t.used.Add(n) > t.budget {
		t.used.Add(-n)
		return false
	}
	return true
}

// Release returns n bytes to the grant.
func (t *Tracker) Release(n int64) {
	if t != nil && t.budget > 0 {
		t.used.Add(-n)
	}
}

// NoteSpill counts one spill event.
func (t *Tracker) NoteSpill() {
	if t != nil {
		t.spills.Add(1)
		mSpills.Inc()
	}
}

// Spills reports how many partitions were spilled.
func (t *Tracker) Spills() int64 {
	if t == nil {
		return 0
	}
	return t.spills.Load()
}

// Used reports current reserved bytes.
func (t *Tracker) Used() int64 {
	if t == nil {
		return 0
	}
	return t.used.Load()
}

// rowBytes estimates a row's in-memory footprint for grant accounting.
func rowBytes(row sqltypes.Row) int64 {
	n := int64(48) // slice + header overhead
	for _, v := range row {
		n += 24
		if v.Typ == sqltypes.String {
			n += int64(len(v.S))
		}
	}
	return n
}

// spillPartition accumulates the rows of one spill file, flushes them to the
// storage substrate in chunks (paying accounted write I/O), and reads them
// back as batches.
//
// String cells use a tagged encoding so dict-coded vectors spill without
// decoding: a coded cell is written as its dictionary code (tag 1) when the
// column's dictionary matches the partition's per-column binding, set on the
// first coded write; anything else is written inline (tag 0). Spill files
// live and die within one query on one process, so holding the *encoding.Dict
// pointer across the round trip is sound, and codes written against a
// dictionary snapshot stay decodable because dictionary ids are never
// reassigned. Read back, every cell lands in its column's typed vector, and
// a coded cell materializes to its string.
type spillPartition struct {
	schema *sqltypes.Schema
	store  *storage.Store
	buf    []byte
	rows   int
	blobs  []storage.BlobID
	dicts  []*encoding.Dict // per-column dictionary binding for coded cells
}

const spillChunkBytes = 1 << 20

func newSpillPartition(store *storage.Store, schema *sqltypes.Schema) *spillPartition {
	return &spillPartition{schema: schema, store: store, dicts: make([]*encoding.Dict, schema.Len())}
}

// addBatchRow spills physical row r of b. Dict-coded string cells are
// written as raw codes — no decoding on the spill write path.
func (p *spillPartition) addBatchRow(b *vector.Batch, r int) error {
	p.buf = p.encodeBatchRow(p.buf, b, r)
	p.rows++
	if len(p.buf) >= spillChunkBytes {
		return p.flush()
	}
	return nil
}

func (p *spillPartition) encodeBatchRow(dst []byte, b *vector.Batch, r int) []byte {
	n := len(p.schema.Cols)
	nullOff := len(dst)
	for i := 0; i < (n+7)/8; i++ {
		dst = append(dst, 0)
	}
	for c, col := range p.schema.Cols {
		v := b.Vecs[c]
		if v.IsNull(r) {
			dst[nullOff+c/8] |= 1 << uint(c%8)
			continue
		}
		switch col.Typ {
		case sqltypes.Int64, sqltypes.Date:
			dst = binary.AppendVarint(dst, v.I64[r])
		case sqltypes.Bool:
			dst = append(dst, byte(v.I64[r]&1))
		case sqltypes.Float64:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F64[r]))
		default: // String
			if v.IsCoded() {
				if p.dicts[c] == nil {
					p.dicts[c] = v.Dict
				}
				if p.dicts[c] == v.Dict {
					dst = append(dst, 1)
					dst = binary.AppendUvarint(dst, v.Codes[r])
					continue
				}
			}
			s := v.StrAt(r)
			dst = append(dst, 0)
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	}
	return dst
}

// decodeRow decodes one spilled row from buf into row r of b and returns its
// length, resolving coded string cells through the given per-column
// dictionary snapshots.
func (p *spillPartition) decodeRow(buf []byte, b *vector.Batch, r int, dictVals [][]string) (int, error) {
	ncols := len(p.schema.Cols)
	nullBytes := (ncols + 7) / 8
	if len(buf) < nullBytes {
		return 0, fmt.Errorf("batchexec: spill row truncated in null bitmap")
	}
	nulls := buf[:nullBytes]
	pos := nullBytes
	for c, col := range p.schema.Cols {
		v := b.Vecs[c]
		if nulls[c/8]&(1<<uint(c%8)) != 0 {
			v.SetNull(r)
			continue
		}
		switch col.Typ {
		case sqltypes.Int64, sqltypes.Date:
			x, n := binary.Varint(buf[pos:])
			if n <= 0 {
				return 0, fmt.Errorf("batchexec: bad spill varint in column %d", c)
			}
			pos += n
			v.I64[r] = x
		case sqltypes.Bool:
			if pos >= len(buf) {
				return 0, fmt.Errorf("batchexec: spill row truncated in column %d", c)
			}
			v.I64[r] = int64(buf[pos] & 1)
			pos++
		case sqltypes.Float64:
			if pos+8 > len(buf) {
				return 0, fmt.Errorf("batchexec: spill row truncated in column %d", c)
			}
			v.F64[r] = math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
			pos += 8
		default: // String
			if pos >= len(buf) {
				return 0, fmt.Errorf("batchexec: spill row truncated in column %d", c)
			}
			tag := buf[pos]
			pos++
			u, n := binary.Uvarint(buf[pos:])
			if n <= 0 || tag > 1 {
				return 0, fmt.Errorf("batchexec: bad spill string in column %d", c)
			}
			pos += n
			if tag == 1 {
				vals := dictVals[c]
				if vals == nil || u >= uint64(len(vals)) {
					return 0, fmt.Errorf("batchexec: spill code %d out of dictionary range in column %d", u, c)
				}
				v.Str[r] = vals[u]
				continue
			}
			if u > uint64(len(buf)-pos) {
				return 0, fmt.Errorf("batchexec: spill row truncated in column %d", c)
			}
			v.Str[r] = string(buf[pos : pos+int(u)])
			pos += int(u)
		}
	}
	return pos, nil
}

func (p *spillPartition) flush() error {
	if len(p.buf) == 0 {
		return nil
	}
	id, err := p.store.Put(p.buf, storage.None)
	if err != nil {
		return fmt.Errorf("batchexec: spill write: %w", err)
	}
	p.blobs = append(p.blobs, id)
	p.buf = p.buf[:0]
	return nil
}

// readAll loads the partition back (accounted read I/O) as batches of at
// most batchRows rows, all in one batch when batchRows is 0, and frees the
// spill blobs. It returns at least one batch, empty when the partition is.
func (p *spillPartition) readAll(batchRows int) ([]*vector.Batch, error) {
	if err := p.flush(); err != nil {
		return nil, err
	}
	if batchRows <= 0 {
		batchRows = max(p.rows, 1)
	}
	out := make([]*vector.Batch, max((p.rows+batchRows-1)/batchRows, 1))
	for k := range out {
		n := min(batchRows, p.rows-k*batchRows)
		out[k] = vector.NewBatch(p.schema, n)
		out[k].SetNumRows(n)
	}
	dictVals := make([][]string, len(p.dicts))
	for c, d := range p.dicts {
		if d != nil {
			dictVals[c] = d.SnapshotValues()
		}
	}
	row := 0
	for _, id := range p.blobs {
		data, err := p.store.Get(id)
		if err != nil {
			return nil, fmt.Errorf("batchexec: spill read: %w", err)
		}
		for pos := 0; pos < len(data); row++ {
			if row == p.rows {
				return nil, fmt.Errorf("batchexec: spill decode: more than the %d rows written", p.rows)
			}
			n, err := p.decodeRow(data[pos:], out[row/batchRows], row%batchRows, dictVals)
			if err != nil {
				return nil, fmt.Errorf("batchexec: spill decode: %w", err)
			}
			pos += n
		}
		p.store.Delete(id)
	}
	if row < p.rows {
		return nil, fmt.Errorf("batchexec: spill decode: %d of the %d rows written", row, p.rows)
	}
	p.blobs = nil
	return out, nil
}

// drop discards the partition's spill blobs without reading them.
func (p *spillPartition) drop() {
	for _, id := range p.blobs {
		p.store.Delete(id)
	}
	p.blobs = nil
	p.buf = nil
}

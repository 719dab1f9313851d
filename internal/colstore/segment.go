package colstore

import (
	"encoding/binary"
	"fmt"

	"apollo/internal/bits"
	"apollo/internal/encoding"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
)

// EncKind identifies how a segment's codes map to values.
type EncKind uint8

// Segment encodings.
const (
	EncNumeric EncKind = iota // value-based encoding (ints, floats, dates, bools)
	EncDict                   // dictionary encoding (strings)
)

// CompKind identifies the physical compression of a segment's code stream.
type CompKind uint8

// Segment compressions.
const (
	CompBitPack CompKind = iota
	CompRLE
)

func (c CompKind) String() string {
	if c == CompRLE {
		return "RLE"
	}
	return "BITPACK"
}

// SegmentMeta is the segment directory entry for one column segment: enough
// metadata to decide segment elimination and to decode the payload blob.
type SegmentMeta struct {
	Rows      int
	NullCount int
	Min, Max  sqltypes.Value // raw-domain bounds over non-NULL values
	Enc       EncKind
	Numeric   encoding.NumericEncoding // when Enc == EncNumeric
	DictCut   uint32                   // codes < DictCut resolve in the primary dictionary
	Comp      CompKind
	Blob      storage.BlobID // payload (nulls + compressed codes)
	LocalDict storage.BlobID // 0 = no local dictionary
	DiskBytes int            // at-rest payload size (plus local dict)
	RawBytes  int            // uncompressed logical size of the column's values
}

// buildSegment compresses one column of a row group. perm, when non-nil, is
// the row-reordering permutation shared by all columns of the group.
func buildSegment(store *storage.Store, tier storage.Compression, col sqltypes.Column,
	buf *ColumnBuf, primary *encoding.Dict, primaryCap int, perm []int) (SegmentMeta, error) {

	meta := SegmentMeta{Rows: buf.Len()}
	var codes []uint64
	var local *encoding.Dict

	// Step 1: value/dictionary encoding into codes, plus raw min/max.
	switch col.Typ {
	case sqltypes.String:
		meta.Enc = EncDict
		meta.DictCut = uint32(primary.Len())
		codes = make([]uint64, buf.Len())
		for i, s := range buf.Str {
			if buf.Nulls != nil && buf.Nulls.Get(i) {
				continue
			}
			if id, ok := primary.Lookup(s); ok {
				codes[i] = uint64(id)
			} else if primary.Len() < primaryCap {
				codes[i] = uint64(primary.Add(s))
			} else {
				if local == nil {
					local = encoding.NewDict()
				}
				codes[i] = uint64(meta.DictCut) + uint64(local.Add(s))
			}
		}
		// DictCut must reflect the primary size *after* additions so that
		// every primary id used by this segment falls below the cut.
		meta.DictCut = uint32(primary.Len())
		// Local ids were assigned relative to the pre-addition cut; rebase
		// them if the primary grew during this build.
		// (Simplest correct approach: re-encode local ids.)
		if local != nil {
			for i := range codes {
				if buf.Nulls != nil && buf.Nulls.Get(i) {
					continue
				}
				s := buf.Str[i]
				if id, ok := primary.Lookup(s); ok {
					codes[i] = uint64(id)
				} else {
					id, _ := local.Lookup(s)
					codes[i] = uint64(meta.DictCut) + uint64(id)
				}
			}
		}
	case sqltypes.Float64:
		meta.Enc = EncNumeric
		meta.Numeric, codes = encoding.AnalyzeFloats(buf.F64, buf.Nulls)
	default: // Int64, Date, Bool
		meta.Enc = EncNumeric
		meta.Numeric, codes = encoding.AnalyzeInts(buf.I64, buf.Nulls)
	}

	// Raw min/max and null count.
	first := true
	for i := 0; i < buf.Len(); i++ {
		v := buf.Value(i)
		if v.Null {
			meta.NullCount++
			continue
		}
		if first {
			meta.Min, meta.Max = v, v
			first = false
			continue
		}
		if sqltypes.Compare(v, meta.Min) < 0 {
			meta.Min = v
		}
		if sqltypes.Compare(v, meta.Max) > 0 {
			meta.Max = v
		}
	}
	if first { // all NULL or empty
		meta.Min = sqltypes.NewNull(col.Typ)
		meta.Max = sqltypes.NewNull(col.Typ)
	}

	// Step 2: apply the shared row permutation.
	codes = encoding.ApplyPerm(codes, perm)
	nulls := buf.Nulls
	if perm != nil && nulls != nil {
		pn := bits.New(buf.Len())
		for newPos, oldPos := range perm {
			if nulls.Get(oldPos) {
				pn.Set(newPos)
			}
		}
		nulls = pn
	}

	// Step 3: choose RLE vs bit-packing by estimated size.
	rle := encoding.RLEEncode(codes)
	packed := encoding.PackSlice(codes)
	var payload []byte
	if rle.SizeBytes() < packed.SizeBytes() {
		meta.Comp = CompRLE
		payload = marshalPayload(nulls, buf.Len(), true, func(dst []byte) []byte { return rle.Marshal(dst) })
	} else {
		meta.Comp = CompBitPack
		payload = marshalPayload(nulls, buf.Len(), false, func(dst []byte) []byte { return packed.Marshal(dst) })
	}

	// Step 4: store payload (and local dictionary) under the chosen tier.
	blob, err := store.Put(payload, tier)
	if err != nil {
		return meta, fmt.Errorf("colstore: store segment payload: %w", err)
	}
	meta.Blob = blob
	disk, _, _ := store.SizeOf(blob)
	meta.DiskBytes = disk
	if local != nil {
		lb, err := store.Put(local.Marshal(nil), tier)
		if err != nil {
			return meta, fmt.Errorf("colstore: store local dictionary: %w", err)
		}
		meta.LocalDict = lb
		ld, _, _ := store.SizeOf(lb)
		meta.DiskBytes += ld
	}
	meta.RawBytes = rawSize(col.Typ, buf)
	return meta, nil
}

// rawSize estimates the uncompressed size of the column's values (8 bytes per
// fixed-width value; string length + 2 per string), the denominator of the
// compression-ratio experiments.
func rawSize(t sqltypes.Type, buf *ColumnBuf) int {
	if t == sqltypes.String {
		n := 0
		for _, s := range buf.Str {
			n += len(s) + 2
		}
		return n
	}
	return 8 * buf.Len()
}

// Payload layout:
//
//	flags      1 byte: bit0 = has nulls, bit1 = RLE
//	rows       uvarint
//	nulls      when bit0: uvarint word count + words little-endian
//	codes      RLE.Marshal or Packed.Marshal
func marshalPayload(nulls *bits.Bitmap, rows int, isRLE bool, body func([]byte) []byte) []byte {
	var flags byte
	hasNulls := nulls != nil && nulls.Any()
	if hasNulls {
		flags |= 1
	}
	if isRLE {
		flags |= 2
	}
	out := []byte{flags}
	out = binary.AppendUvarint(out, uint64(rows))
	if hasNulls {
		words := nulls.Words()
		// Trim trailing zero words.
		for len(words) > 0 && words[len(words)-1] == 0 {
			words = words[:len(words)-1]
		}
		out = binary.AppendUvarint(out, uint64(len(words)))
		for _, w := range words {
			out = binary.LittleEndian.AppendUint64(out, w)
		}
	}
	return body(out)
}

// codeStream is a segment's code stream kept in its encoded form: either a
// run table or a bit-packed vector whose Data aliases the payload bytes.
type codeStream struct {
	rle    *encoding.RLE // nil for a bit-packed stream
	packed encoding.Packed
	rows   int
}

// unmarshalPayload parses a segment payload into its encoded code stream and
// null bitmap. It validates lengths but decodes no code: a bit-packed stream
// aliases buf, which must stay unmodified for the stream's lifetime.
func unmarshalPayload(buf []byte) (codes codeStream, nulls *bits.Bitmap, err error) {
	if len(buf) < 1 {
		return codes, nil, fmt.Errorf("colstore: empty segment payload")
	}
	flags := buf[0]
	pos := 1
	rows, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return codes, nil, fmt.Errorf("colstore: bad segment row count")
	}
	pos += n
	if flags&1 != 0 {
		wc, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return codes, nil, fmt.Errorf("colstore: bad null word count")
		}
		pos += n
		if wc > uint64(len(buf)-pos)/8 {
			return codes, nil, fmt.Errorf("colstore: null bitmap truncated")
		}
		words := make([]uint64, wc)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(buf[pos:])
			pos += 8
		}
		nulls = bits.FromWords(words)
	}
	if flags&2 != 0 {
		r, _, err := encoding.UnmarshalRLE(buf[pos:])
		if err != nil {
			return codes, nil, err
		}
		if uint64(r.Len()) != rows {
			return codes, nil, fmt.Errorf("colstore: rle length %d, want %d", r.Len(), rows)
		}
		codes.rle = r
	} else {
		p, _, err := encoding.UnmarshalPacked(buf[pos:])
		if err != nil {
			return codes, nil, err
		}
		if uint64(p.N) != rows {
			return codes, nil, fmt.Errorf("colstore: packed length %d, want %d", p.N, rows)
		}
		codes.packed = p
	}
	codes.rows = int(rows)
	return codes, nulls, nil
}

// CanMatchRange reports whether a segment with meta's min/max could contain a
// value in [lo, hi]; NULL bounds mean unbounded on that side. This is the
// segment-elimination test of §2.3: a scan skips segments whose metadata
// proves no row can qualify.
func (m *SegmentMeta) CanMatchRange(lo, hi sqltypes.Value) bool {
	if m.Min.Null && m.Max.Null {
		// Segment holds only NULLs; range predicates never match NULL.
		return false
	}
	if !lo.Null && sqltypes.Compare(m.Max, lo) < 0 {
		return false
	}
	if !hi.Null && sqltypes.Compare(m.Min, hi) > 0 {
		return false
	}
	return true
}

package colstore

import (
	"fmt"
	"time"

	"apollo/internal/bits"
	"apollo/internal/encoding"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/vector"
)

// ColumnReader provides access to one column segment without expanding it:
// it holds the segment's code stream in encoded form (a bit-packed vector
// aliasing the cached blob bytes, or a run table) and decodes only the rows
// a caller asks for — random access by tuple id (bookmark fetch), chunked
// range decode, gathers of surviving rows into vectors, and code-space
// predicate translation so filters run on encoded data. A reader is
// single-goroutine state (its run cursor and scratch buffer move on every
// read); the bytes it aliases are shared and read-only.
type ColumnReader struct {
	Meta *SegmentMeta
	Col  sqltypes.Column

	codes   codeStream
	runs    encoding.RLECursor // reads codes.rle; ascending reads are amortised O(1)
	nulls   *bits.Bitmap
	scratch []uint64 // code buffer for gathers, at most gatherChunk codes

	// primary is the shared table-wide dictionary; primaryVals is a snapshot
	// of its id->value slice taken at open time, safe to read while the tuple
	// mover concurrently appends new entries.
	primary     *encoding.Dict
	primaryVals []string
	local       *encoding.Dict
	localVals   []string

	// Late-materialization state: codedState caches whether this segment can
	// emit primary-dictionary codes directly (local codes remapped via remap).
	codedState int      // 0 = undecided, 1 = can emit codes, 2 = must materialize
	remap      []uint32 // local code -> primary id; nil when no local dict
}

// gatherChunk bounds the scratch buffer a gather or materialization decodes
// codes into before converting them to values.
const gatherChunk = 256

// OpenColumn reads a segment from the store and parses its header, null
// bitmap and code-stream framing; no code is decoded. primary is the
// column's primary dictionary (nil for non-string columns).
func OpenColumn(store *storage.Store, meta *SegmentMeta, col sqltypes.Column, primary *encoding.Dict) (*ColumnReader, error) {
	payload, err := store.Get(meta.Blob)
	if err != nil {
		return nil, fmt.Errorf("colstore: read segment: %w", err)
	}
	decodeStart := time.Now()
	codes, nulls, err := unmarshalPayload(payload)
	if err != nil {
		return nil, err
	}
	if meta.Enc == EncDict {
		mSegDict.Inc()
		mDecodeDict.Observe(time.Since(decodeStart).Seconds())
	} else {
		mSegNumeric.Inc()
		mDecodeNumeric.Observe(time.Since(decodeStart).Seconds())
	}
	if codes.rows != meta.Rows {
		return nil, fmt.Errorf("colstore: segment has %d rows, directory says %d", codes.rows, meta.Rows)
	}
	r := &ColumnReader{Meta: meta, Col: col, codes: codes, nulls: nulls, primary: primary}
	if codes.rle != nil {
		r.runs = codes.rle.Cursor()
	}
	if primary != nil {
		r.primaryVals = primary.SnapshotValues()
	}
	if meta.LocalDict != 0 {
		buf, err := store.Get(meta.LocalDict)
		if err != nil {
			return nil, fmt.Errorf("colstore: read local dictionary: %w", err)
		}
		d, _, err := encoding.UnmarshalDict(buf)
		if err != nil {
			return nil, err
		}
		r.local = d
		r.localVals = d.SnapshotValues()
	}
	return r, nil
}

// Len returns the number of rows in the segment.
func (r *ColumnReader) Len() int { return r.codes.rows }

// Nulls exposes the null bitmap (may be nil).
func (r *ColumnReader) Nulls() *bits.Bitmap { return r.nulls }

// IsNull reports whether row i is NULL.
func (r *ColumnReader) IsNull(i int) bool { return r.nulls != nil && r.nulls.Get(i) }

// CodeAt returns row i's code: a word-at-a-time extract from packed data, or
// a run-cursor read from RLE data (amortised O(1) when i ascends).
func (r *ColumnReader) CodeAt(i int) uint64 {
	if r.codes.rle != nil {
		return r.runs.At(i)
	}
	return r.codes.packed.Get(i)
}

// DecodeRange decodes the codes of rows start, start+1, ... into dst, up to
// the end of dst or of the segment, and returns the filled prefix. Dense
// passes over a segment call it with a small caller-owned buffer.
func (r *ColumnReader) DecodeRange(start int, dst []uint64) []uint64 {
	if r.codes.rle != nil {
		return r.codes.rle.DecodeRange(start, dst)
	}
	return r.codes.packed.DecodeRange(start, dst)
}

// CodesAt writes the codes of rows idxs (strictly ascending) into dst, which
// must hold len(idxs) values, and returns dst[:len(idxs)]. Contiguous ids —
// the batches of a group that no filter narrowed — decode as one range;
// anything sparser reads each row through CodeAt.
func (r *ColumnReader) CodesAt(idxs []int, dst []uint64) []uint64 {
	dst = dst[:len(idxs)]
	if len(idxs) == 0 {
		return dst
	}
	if idxs[len(idxs)-1]-idxs[0] == len(idxs)-1 {
		return r.DecodeRange(idxs[0], dst)
	}
	if r.codes.rle != nil {
		for k, i := range idxs {
			dst[k] = r.runs.At(i)
		}
		return dst
	}
	p := r.codes.packed
	for k, i := range idxs {
		dst[k] = p.Get(i)
	}
	return dst
}

// DecodeCode maps a code to its raw value.
func (r *ColumnReader) DecodeCode(code uint64) sqltypes.Value {
	if r.Meta.Enc == EncDict {
		return sqltypes.NewString(r.dictValue(code))
	}
	switch r.Col.Typ {
	case sqltypes.Float64:
		return sqltypes.NewFloat(r.Meta.Numeric.DecodeFloat(code))
	default:
		return sqltypes.Value{Typ: r.Col.Typ, I: r.Meta.Numeric.DecodeInt(code)}
	}
}

func (r *ColumnReader) dictValue(code uint64) string {
	if code < uint64(r.Meta.DictCut) {
		return r.primaryVals[code]
	}
	return r.localVals[code-uint64(r.Meta.DictCut)]
}

// Value returns row i as a raw value (bookmark-style random access).
func (r *ColumnReader) Value(i int) sqltypes.Value {
	if r.IsNull(i) {
		return sqltypes.NewNull(r.Col.Typ)
	}
	return r.DecodeCode(r.CodeAt(i))
}

// chunk returns the reader's scratch code buffer with room for n codes,
// capped at gatherChunk.
func (r *ColumnReader) chunk(n int) []uint64 {
	n = min(n, gatherChunk)
	if cap(r.scratch) < n {
		r.scratch = make([]uint64, n)
	}
	return r.scratch[:n]
}

// decodeInto writes the values of codes into v's rows at, at+1, ....
func (r *ColumnReader) decodeInto(v *vector.Vector, at int, codes []uint64) {
	switch {
	case r.Meta.Enc == EncDict:
		out := v.Str[at : at+len(codes)]
		for k, c := range codes {
			out[k] = r.dictValue(c)
		}
	case r.Col.Typ == sqltypes.Float64:
		num := r.Meta.Numeric
		out := v.F64[at : at+len(codes)]
		for k, c := range codes {
			out[k] = num.DecodeFloat(c)
		}
	default:
		num := r.Meta.Numeric
		out := v.I64[at : at+len(codes)]
		if num.Kind == encoding.NumOffset {
			base := num.Base
			for k, c := range codes {
				out[k] = int64(c) + base
			}
		} else {
			for k, c := range codes {
				out[k] = num.DecodeInt(c)
			}
		}
	}
}

// resetVector readies v to receive n decoded (not dict-coded) rows.
func resetVector(v *vector.Vector, n int) {
	v.ClearCoded()
	v.Resize(n)
	if v.Nulls != nil {
		v.Nulls.Reset()
	}
}

// MaterializeInto decodes rows [start, start+n) into v, resizing it to n.
func (r *ColumnReader) MaterializeInto(v *vector.Vector, start, n int) {
	resetVector(v, n)
	buf := r.chunk(n)
	for at := 0; at < n; at += len(buf) {
		r.decodeInto(v, at, r.DecodeRange(start+at, buf[:min(len(buf), n-at)]))
	}
	if r.nulls != nil {
		for i := 0; i < n; i++ {
			if r.nulls.Get(start + i) {
				v.SetNull(i)
			}
		}
	}
}

// CodeRange translates a raw-domain range [lo, hi] (NULL = unbounded) into a
// code-domain range for monotonic numeric encodings, so a vectorized filter
// can compare codes directly without decoding. ok is false when the encoding
// is not order-preserving (raw floats, dictionaries) and the caller must
// evaluate on decoded values or use CodeSetMatching.
func (r *ColumnReader) CodeRange(lo, hi sqltypes.Value) (cLo, cHi uint64, ok bool) {
	if r.Meta.Enc != EncNumeric {
		return 0, 0, false
	}
	num := r.Meta.Numeric
	if num.Kind == encoding.NumFloatRaw {
		return 0, 0, false
	}
	cLo, cHi = 0, ^uint64(0)
	switch num.Kind {
	case encoding.NumFloatScaled:
		if !lo.Null {
			cLo = floatToCodeCeil(num, lo.AsFloat())
		}
		if !hi.Null {
			c, under := floatToCodeFloor(num, hi.AsFloat())
			if under {
				return 1, 0, true // hi below segment base: empty range
			}
			cHi = c
		}
	default: // NumOffset, NumScaled over int64 domain
		if !lo.Null {
			cLo = intToCodeCeil(num, loBoundInt(lo))
		}
		if !hi.Null {
			c, under := intToCodeFloor(num, hiBoundInt(hi))
			if under {
				return 1, 0, true // empty range
			}
			cHi = c
		}
	}
	if cLo > cHi {
		// Empty code range; signal via cLo>cHi which filters treat as no match.
		return 1, 0, true
	}
	return cLo, cHi, true
}

// loBoundInt converts a lower-bound value to int64, rounding up for floats.
func loBoundInt(v sqltypes.Value) int64 {
	if v.Typ == sqltypes.Float64 {
		f := v.F
		i := int64(f)
		if float64(i) < f {
			i++
		}
		return i
	}
	return v.I
}

// hiBoundInt converts an upper-bound value to int64, rounding down for floats.
func hiBoundInt(v sqltypes.Value) int64 {
	if v.Typ == sqltypes.Float64 {
		f := v.F
		i := int64(f)
		if float64(i) > f {
			i--
		}
		return i
	}
	return v.I
}

// intToCodeCeil returns the smallest code whose decoded value is >= v.
func intToCodeCeil(num encoding.NumericEncoding, v int64) uint64 {
	base := num.Base
	scaled := v
	if num.Kind == encoding.NumScaled {
		p := pow10i(int(num.Scale))
		// ceil division toward +inf
		q := v / p
		if q*p < v {
			q++
		}
		scaled = q
	}
	if scaled <= base {
		return 0
	}
	return uint64(scaled) - uint64(base)
}

// intToCodeFloor returns the largest code whose decoded value is <= v;
// under=true when v is below every encodable value.
func intToCodeFloor(num encoding.NumericEncoding, v int64) (uint64, bool) {
	base := num.Base
	scaled := v
	if num.Kind == encoding.NumScaled {
		p := pow10i(int(num.Scale))
		q := v / p
		if q*p > v {
			q--
		}
		scaled = q
	}
	if scaled < base {
		return 0, true
	}
	return uint64(scaled) - uint64(base), false
}

func floatToCodeCeil(num encoding.NumericEncoding, f float64) uint64 {
	m := pow10f(int(num.Scale))
	s := f * m
	i := int64(s)
	if float64(i) < s {
		i++
	}
	if i <= num.Base {
		return 0
	}
	return uint64(i) - uint64(num.Base)
}

func floatToCodeFloor(num encoding.NumericEncoding, f float64) (uint64, bool) {
	m := pow10f(int(num.Scale))
	s := f * m
	i := int64(s)
	if float64(i) > s {
		i--
	}
	if i < num.Base {
		return 0, true
	}
	return uint64(i) - uint64(num.Base), false
}

func pow10i(k int) int64 {
	p := int64(1)
	for ; k > 0; k-- {
		p *= 10
	}
	return p
}

func pow10f(k int) float64 {
	p := 1.0
	for ; k > 0; k-- {
		p *= 10
	}
	return p
}

// CodeSetMatching evaluates pred once per distinct dictionary entry and
// returns the set of matching codes as a bitmap over code space — the paper's
// trick of evaluating string predicates on compressed data: O(|dictionary|)
// evaluations instead of O(rows).
func (r *ColumnReader) CodeSetMatching(pred func(sqltypes.Value) bool) *bits.Bitmap {
	set := bits.New(int(r.Meta.DictCut) + 64)
	for id := uint32(0); id < r.Meta.DictCut; id++ {
		if pred(sqltypes.NewString(r.primaryVals[id])) {
			set.Set(int(id))
		}
	}
	for i, s := range r.localVals {
		if pred(sqltypes.NewString(s)) {
			set.Set(int(r.Meta.DictCut) + i)
		}
	}
	return set
}

// LookupCode returns the code for an exact string value if it appears in this
// segment's dictionaries. ok=false means no row of the segment can equal s.
func (r *ColumnReader) LookupCode(s string) (uint64, bool) {
	if r.primary != nil {
		if id, ok := r.primary.Lookup(s); ok && id < r.Meta.DictCut {
			return uint64(id), true
		}
	}
	if r.local != nil {
		if id, ok := r.local.Lookup(s); ok {
			return uint64(r.Meta.DictCut) + uint64(id), true
		}
	}
	return 0, false
}

// CanEmitCodes reports whether this segment's column can be emitted as
// primary-dictionary codes (late materialization). True for dict-encoded
// segments whose local dictionary, if any, remaps fully into the primary
// dictionary; false for numeric segments and for segments holding values the
// primary dictionary has never seen.
func (r *ColumnReader) CanEmitCodes() bool {
	if r.codedState == 0 {
		r.prepareCoded()
	}
	return r.codedState == 1
}

func (r *ColumnReader) prepareCoded() {
	r.codedState = 2
	if r.Meta.Enc != EncDict || r.primary == nil {
		return
	}
	if r.local == nil {
		r.codedState = 1
		return
	}
	// Remap local codes to primary ids. A local value may have entered the
	// primary dictionary after this segment was built (the dictionary only
	// grows); if every local value resolves, the whole segment can travel in
	// primary code space. Otherwise fall back to eager materialization.
	remap := make([]uint32, len(r.localVals))
	for i, s := range r.localVals {
		id, ok := r.primary.Lookup(s)
		if !ok {
			return
		}
		if int(id) >= len(r.primaryVals) {
			// The id postdates our snapshot; refresh — ids are stable, so the
			// new snapshot covers it and keeps every previously valid code.
			r.primaryVals = r.primary.SnapshotValues()
		}
		remap[i] = id
	}
	r.remap = remap
	r.codedState = 1
}

// GatherCodesInto fills v with primary-dictionary codes for the rows at idxs
// (strictly ascending) without decoding any string. The caller must have
// checked CanEmitCodes.
func (r *ColumnReader) GatherCodesInto(v *vector.Vector, idxs []int) {
	v.MakeCoded(r.primary, r.primaryVals, len(idxs))
	if v.Nulls != nil {
		v.Nulls.Reset()
	}
	codes := r.CodesAt(idxs, v.Codes)
	if r.remap != nil {
		cut := uint64(r.Meta.DictCut)
		for i, c := range codes {
			if c >= cut {
				codes[i] = uint64(r.remap[c-cut])
			}
		}
	}
	r.gatherNulls(v, idxs)
}

// GatherInto decodes the rows at idxs (strictly ascending physical
// positions) into v, resizing it to len(idxs). Vectorized scans use it to
// materialize only the rows that survived filtering on encoded data.
func (r *ColumnReader) GatherInto(v *vector.Vector, idxs []int) {
	n := len(idxs)
	resetVector(v, n)
	buf := r.chunk(n)
	for at := 0; at < n; at += len(buf) {
		part := idxs[at:min(at+len(buf), n)]
		r.decodeInto(v, at, r.CodesAt(part, buf))
	}
	r.gatherNulls(v, idxs)
}

func (r *ColumnReader) gatherNulls(v *vector.Vector, idxs []int) {
	if r.nulls == nil {
		return
	}
	for i, j := range idxs {
		if r.nulls.Get(j) {
			v.SetNull(i)
		}
	}
}

// Package bloom implements the bitmap filters of the paper's §5: during the
// build side of a hash join, the join keys are summarized into a bitmap
// filter that is pushed down to the probe side's columnstore scan, so rows
// that cannot join are disqualified before they reach the join operator —
// often while still in encoded form.
//
// A filter has one of the paper's two layouts. A simple (exact) bitmap holds
// one bit per integer of the build keys' range [lo, lo+span): a probe is a
// subtraction, a compare and a bit test, with no hash and no false positives,
// and a scan can run it on a segment's codes directly. A Bloom filter hashes
// each key to two bits of a power-of-two array and answers "maybe" for a few
// percent of absent keys; it is the layout for string and float keys and for
// integer keys spread too thinly for a range bitmap. NewInts chooses for
// integer-family keys: exact when the non-NULL keys' span max−min+1 is at
// most the larger of the Bloom filter's bit count for that many keys and
// ExactMinBits (64 Ki bits, 8 KiB), Bloom otherwise. The choice depends only
// on the keys.
package bloom

import (
	"math"
	"math/bits"

	ibits "apollo/internal/bits"
	"apollo/internal/sqltypes"
)

// Filter is an exact range bitmap or a Bloom filter over 64-bit hashes with
// two derived probes per element. The zero value is not usable; call New or
// NewInts.
type Filter struct {
	words []uint64
	mask  uint64 // Bloom: bit-index mask (len(words)*64 - 1, power of two)
	exact bool   // exact: bit u of words stands for the key lo+u, u < span
	lo    int64
	span  uint64
	n     int // elements added
}

// DefaultBitsPerKey trades ~3% false positives for 10 bits per build key.
const DefaultBitsPerKey = 10

// ExactMinBits is the span NewInts keeps exact however few the keys are: an
// 8 KiB bitmap is cheap next to any build that publishes a filter.
const ExactMinBits = 1 << 16

// New sizes a Bloom filter for the expected number of keys at bitsPerKey bits
// each (rounded up to a power-of-two bit count, minimum 1024 bits).
func New(expectedKeys, bitsPerKey int) *Filter {
	nbits := bloomBits(expectedKeys, bitsPerKey)
	return &Filter{words: make([]uint64, nbits/64), mask: uint64(nbits - 1)}
}

// bloomBits is the bit count New allocates.
func bloomBits(expectedKeys, bitsPerKey int) int {
	if expectedKeys < 1 {
		expectedKeys = 1
	}
	if bitsPerKey < 1 {
		bitsPerKey = DefaultBitsPerKey
	}
	nbits := expectedKeys * bitsPerKey
	if nbits < 1024 {
		nbits = 1024
	}
	// Round up to a power of two for mask-based indexing.
	return 1 << bits.Len(uint(nbits-1))
}

// NewInts builds the filter of a join's integer-family keys (Int64, Date,
// Bool values), skipping rows set in nulls (which may be nil). It is exact
// when the keys' span fits max(bloomBits, ExactMinBits) bits — an empty key
// set makes an exact filter that rejects everything — and a Bloom filter
// sized for len(keys) otherwise.
func NewInts(keys []int64, nulls *ibits.Bitmap) *Filter {
	lo, hi, seen := int64(0), int64(0), false
	for i, k := range keys {
		if nulls != nil && nulls.Get(i) {
			continue
		}
		if !seen {
			lo, hi, seen = k, k, true
		}
		lo, hi = min(lo, k), max(hi, k)
	}
	var f *Filter
	switch budget := max(bloomBits(len(keys), DefaultBitsPerKey), ExactMinBits); {
	case !seen:
		return &Filter{exact: true}
	case uint64(hi)-uint64(lo) < uint64(budget): // span hi-lo+1, which cannot overflow here
		span := uint64(hi) - uint64(lo) + 1
		f = &Filter{exact: true, lo: lo, span: span, words: make([]uint64, (span+63)/64)}
	default:
		f = New(len(keys), DefaultBitsPerKey)
	}
	for i, k := range keys {
		if nulls == nil || !nulls.Get(i) {
			f.AddInt(k)
		}
	}
	return f
}

// probes derives two bit positions from one hash.
func (f *Filter) probes(h uint64) (uint64, uint64) {
	h2 := (h >> 33) | (h << 31) | 1
	return h & f.mask, (h + h2) & f.mask
}

// AddHash inserts a pre-hashed key into a Bloom filter.
func (f *Filter) AddHash(h uint64) {
	p1, p2 := f.probes(h)
	f.words[p1/64] |= 1 << (p1 % 64)
	f.words[p2/64] |= 1 << (p2 % 64)
	f.n++
}

// Add inserts a value into a Bloom filter.
func (f *Filter) Add(v sqltypes.Value) { f.AddHash(HashValue(v)) }

// AddInt inserts an integer-family value; an exact filter's key must lie in
// its span.
func (f *Filter) AddInt(v int64) {
	if !f.exact {
		f.AddHash(splitmix64(uint64(v)))
		return
	}
	u := f.bitmap().Pos(v)
	f.words[u>>6] |= 1 << (u & 63)
	f.n++
}

// MayContainHash reports whether a pre-hashed key may be present in a Bloom
// filter. False means definitely absent.
func (f *Filter) MayContainHash(h uint64) bool {
	p1, p2 := f.probes(h)
	return f.words[p1/64]&(1<<(p1%64)) != 0 && f.words[p2/64]&(1<<(p2%64)) != 0
}

// MayContain reports whether a value may be present. An exact filter answers
// exactly: integral floats test their integer value, and non-integral floats,
// strings and NULL are absent.
func (f *Filter) MayContain(v sqltypes.Value) bool {
	if !f.exact {
		return f.MayContainHash(HashValue(v))
	}
	switch {
	case v.Null || v.Typ == sqltypes.String:
		return false
	case v.Typ == sqltypes.Float64:
		i, ok := sqltypes.IntegralFloat(v.F)
		return ok && f.MayContainInt(i)
	default:
		return f.MayContainInt(v.I)
	}
}

// MayContainInt reports whether an integer-family value may be present.
func (f *Filter) MayContainInt(v int64) bool {
	if f.exact {
		b := f.bitmap()
		return b.Has(b.Pos(v))
	}
	return f.MayContainHash(splitmix64(uint64(v)))
}

// Exact returns an exact filter's bitmap; ok is false for a Bloom filter.
func (f *Filter) Exact() (b Bitmap, ok bool) { return f.bitmap(), f.exact }

func (f *Filter) bitmap() Bitmap { return Bitmap{Lo: f.lo, Span: f.span, Words: f.words} }

// Bitmap is an exact filter's bit array, a small value a scan kernel keeps in
// registers: bit u (u < Span) is set iff the key Lo+u was added.
type Bitmap struct {
	Lo    int64
	Span  uint64
	Words []uint64
}

// Pos is value v's bit position. It wraps modulo 2^64, so values below Lo
// land at or above Span, and it commutes with adding codes: for a segment
// value-encoded as Base+c, Pos(Base)+c is Pos(Base+c).
func (b Bitmap) Pos(v int64) uint64 { return uint64(v) - uint64(b.Lo) }

// Has reports whether bit position u holds a key; u >= Span never does.
func (b Bitmap) Has(u uint64) bool { return u < b.Span && b.Words[u>>6]>>(u&63)&1 != 0 }

// Overlaps reports whether some value in [lo, hi] lies in the key range.
func (b Bitmap) Overlaps(lo, hi int64) bool {
	return b.Span > 0 && hi >= b.Lo && lo <= b.Lo+int64(b.Span-1)
}

// HashValue is the filter's value hash: values that compare equal hash
// identically (integers and integral floats share a hash), and it is much
// cheaper than a general byte-stream hash for the numeric join keys that
// dominate star schemas. Filters are self-consistent: the same function runs
// on the build (Add) and probe (MayContain) sides.
func HashValue(v sqltypes.Value) uint64 {
	if v.Null {
		return 0x9E3779B97F4A7C15
	}
	switch v.Typ {
	case sqltypes.String:
		var h uint64 = 14695981039346656037
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * 1099511628211
		}
		return splitmix64(h)
	case sqltypes.Float64:
		if i, ok := sqltypes.IntegralFloat(v.F); ok {
			return splitmix64(uint64(i))
		}
		return splitmix64(math.Float64bits(v.F) | 1<<63>>1)
	default:
		return splitmix64(uint64(v.I))
	}
}

// splitmix64 is a strong, cheap 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Len returns the number of keys added.
func (f *Filter) Len() int { return f.n }

// SizeBytes reports the filter's bit-array size.
func (f *Filter) SizeBytes() int { return 8 * len(f.words) }

// FillRatio reports the fraction of set bits (diagnostics: Bloom filters past
// ~50% are saturated and stop being selective).
func (f *Filter) FillRatio() float64 {
	if len(f.words) == 0 {
		return 0
	}
	set := 0
	for _, w := range f.words {
		set += bits.OnesCount64(w)
	}
	return float64(set) / float64(len(f.words)*64)
}

package bloom

import (
	"math/rand"
	"testing"

	"apollo/internal/encoding"
)

// FuzzBitmapFilter builds a filter from n random keys in [lo, lo+spread) —
// dense when spread is small, sparse or overflowing when it is large — and
// checks: every key answers true; an exact filter answers false for every
// other value near its range; and the scan's code-space test on an
// offset-encoded segment code, Has(code+Pos(base)), equals
// MayContainInt(DecodeInt(code)) for the given base and code and for a base
// and code chosen to land on a key.
func FuzzBitmapFilter(f *testing.F) {
	f.Add(int64(8035), uint64(2555), uint16(365), int64(1), int64(8035), uint64(0))
	f.Add(int64(1), uint64(600), uint16(120), int64(2), int64(-5), uint64(7))
	f.Add(int64(-40), uint64(80), uint16(80), int64(3), int64(-1<<63), uint64(1<<63))
	f.Add(int64(0), uint64(1<<40), uint16(500), int64(4), int64(17), uint64(3))
	f.Add(int64(-1<<63), uint64(1<<63), uint16(3), int64(5), int64(1<<62), uint64(1<<62))
	f.Add(int64(1<<62), uint64(1<<17), uint16(0), int64(6), int64(1<<62), uint64(1))
	f.Fuzz(func(t *testing.T, lo int64, spread uint64, n uint16, seed int64, base int64, code uint64) {
		rng := rand.New(rand.NewSource(seed))
		keys := make([]int64, int(n)%4096)
		set := map[int64]bool{}
		for i := range keys {
			off := rng.Uint64()
			if spread != 0 {
				off %= spread
			}
			keys[i] = int64(uint64(lo) + off)
			set[keys[i]] = true
		}
		flt := NewInts(keys, nil)
		for _, k := range keys {
			if !flt.MayContainInt(k) {
				t.Fatalf("false negative for key %d", k)
			}
		}
		bm, exact := flt.Exact()
		if !exact {
			return
		}
		if len(keys) > 0 {
			first := keys[0] - int64(bm.Pos(keys[0])) // the bitmap's Lo
			for u := uint64(0); u < bm.Span+64; u++ {
				v := int64(uint64(first) + u)
				if flt.MayContainInt(v) != set[v] {
					t.Fatalf("MayContainInt(%d) = %v, key %v", v, !set[v], set[v])
				}
			}
		}
		check := func(base int64, code uint64) {
			enc := encoding.NumericEncoding{Kind: encoding.NumOffset, Base: base}
			if got, want := bm.Has(code+bm.Pos(base)), flt.MayContainInt(enc.DecodeInt(code)); got != want {
				t.Fatalf("code %d at base %d: code-space test %v, value test %v", code, base, got, want)
			}
		}
		check(base, code)
		if len(keys) > 0 {
			k := keys[int(code%uint64(len(keys)))]
			check(base, uint64(k)-uint64(base))
			check(k-int64(code%1024), code%1024)
		}
	})
}

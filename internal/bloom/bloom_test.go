package bloom

import (
	"math"
	"math/rand"
	"testing"

	ibits "apollo/internal/bits"
	"apollo/internal/sqltypes"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(10000, DefaultBitsPerKey)
	for i := int64(0); i < 10000; i++ {
		f.Add(sqltypes.NewInt(i))
	}
	if f.Len() != 10000 {
		t.Fatalf("Len = %d", f.Len())
	}
	for i := int64(0); i < 10000; i++ {
		if !f.MayContain(sqltypes.NewInt(i)) {
			t.Fatalf("false negative for %d", i)
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	f := New(10000, DefaultBitsPerKey)
	for i := int64(0); i < 10000; i++ {
		f.Add(sqltypes.NewInt(i))
	}
	fp := 0
	const trials = 20000
	for i := int64(0); i < trials; i++ {
		if f.MayContain(sqltypes.NewInt(1_000_000 + i)) {
			fp++
		}
	}
	rate := float64(fp) / trials
	if rate > 0.10 {
		t.Fatalf("false positive rate too high: %.3f (fill %.2f)", rate, f.FillRatio())
	}
}

func TestStringsAndMixedTypes(t *testing.T) {
	f := New(100, DefaultBitsPerKey)
	f.Add(sqltypes.NewString("hello"))
	f.Add(sqltypes.NewInt(42))
	if !f.MayContain(sqltypes.NewString("hello")) {
		t.Fatal("false negative for string")
	}
	// Int and integral float hash identically (join key semantics).
	if !f.MayContain(sqltypes.NewFloat(42.0)) {
		t.Fatal("numeric family hash mismatch")
	}
}

func TestTinyAndDegenerateSizes(t *testing.T) {
	f := New(0, 0)
	f.Add(sqltypes.NewInt(1))
	if !f.MayContain(sqltypes.NewInt(1)) {
		t.Fatal("tiny filter broken")
	}
	if f.SizeBytes() < 128 {
		t.Fatalf("minimum size not enforced: %d", f.SizeBytes())
	}
}

func TestFillRatio(t *testing.T) {
	f := New(1000, DefaultBitsPerKey)
	if f.FillRatio() != 0 {
		t.Fatal("fresh filter not empty")
	}
	for i := int64(0); i < 1000; i++ {
		f.AddHash(uint64(i) * 0x9E3779B97F4A7C15)
	}
	r := f.FillRatio()
	if r <= 0 || r > 0.5 {
		t.Fatalf("fill ratio out of range: %f", r)
	}
}

// keysOf draws n keys from [lo, lo+spread) with a fixed seed.
func keysOf(lo int64, spread int64, n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = lo + rng.Int63n(spread)
	}
	return keys
}

// checkExact asserts f is exact and answers exactly over [lo-margin,
// hi+margin] and at the int64 extremes.
func checkExact(t *testing.T, f *Filter, keys []int64) {
	t.Helper()
	if _, ok := f.Exact(); !ok {
		t.Fatal("filter is not exact")
	}
	set := map[int64]bool{}
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		set[k] = true
		lo, hi = min(lo, k), max(hi, k)
	}
	const margin = 130
	start := lo - margin
	if start > lo { // wrapped below math.MinInt64
		start = math.MinInt64
	}
	for v := start; ; v++ {
		if got := f.MayContainInt(v); got != set[v] {
			t.Fatalf("MayContainInt(%d) = %v, want %v (keys in [%d, %d])", v, got, set[v], lo, hi)
		}
		if v >= hi+margin || v == math.MaxInt64 {
			break
		}
	}
	for _, v := range []int64{math.MinInt64, math.MaxInt64, 0, -1} {
		if got := f.MayContainInt(v); got != set[v] {
			t.Fatalf("MayContainInt(%d) = %v, want %v", v, got, set[v])
		}
	}
}

func TestExactNoFalseNegativesOrPositives(t *testing.T) {
	keys := keysOf(1_000_000, 20_000, 3_000, 1)
	f := NewInts(keys, nil)
	checkExact(t, f, keys)
	if f.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", f.Len(), len(keys))
	}
}

func TestExactValueTypes(t *testing.T) {
	keys := []int64{0, 1, 7, 8035, 10591}
	f := NewInts(keys, nil)
	if _, ok := f.Exact(); !ok {
		t.Fatal("small dense key set is not exact")
	}
	for _, k := range keys {
		for _, v := range []sqltypes.Value{sqltypes.NewInt(k), sqltypes.NewDate(k), sqltypes.NewFloat(float64(k))} {
			if !f.MayContain(v) {
				t.Fatalf("false negative for %v (%v)", v, v.Typ)
			}
		}
	}
	for _, v := range []sqltypes.Value{sqltypes.NewBool(false), sqltypes.NewBool(true)} {
		if !f.MayContain(v) {
			t.Fatalf("false negative for %v", v)
		}
	}
	for _, v := range []sqltypes.Value{
		sqltypes.NewInt(2), sqltypes.NewDate(8036), sqltypes.NewFloat(7.5), sqltypes.NewFloat(6.9999),
		sqltypes.NewFloat(math.NaN()), sqltypes.NewFloat(math.Inf(1)), sqltypes.NewFloat(1e300),
		sqltypes.NewString("7"), sqltypes.NewString(""),
		sqltypes.NewNull(sqltypes.Int64), sqltypes.NewNull(sqltypes.Float64),
	} {
		if f.MayContain(v) {
			t.Fatalf("exact filter accepts %v (%v)", v, v.Typ)
		}
	}
}

func TestExactNegativeKeys(t *testing.T) {
	keys := []int64{-100, -97, -94, -60, -51, -1}
	checkExact(t, NewInts(keys, nil), keys)
	keys = keysOf(-5_000_000_000, 40_000, 500, 2)
	checkExact(t, NewInts(keys, nil), keys)
}

func TestExactSpanOverflowFallsBack(t *testing.T) {
	keys := []int64{math.MinInt64, 0, math.MaxInt64}
	f := NewInts(keys, nil)
	if _, ok := f.Exact(); ok {
		t.Fatal("a span of 2^64 keys built an exact filter")
	}
	for _, k := range keys {
		if !f.MayContainInt(k) {
			t.Fatalf("Bloom fallback lost key %d", k)
		}
	}
	// Ranges touching either end of int64 stay exact.
	checkExact(t, NewInts([]int64{math.MaxInt64 - 9, math.MaxInt64}, nil), []int64{math.MaxInt64 - 9, math.MaxInt64})
	checkExact(t, NewInts([]int64{math.MinInt64, math.MinInt64 + 3}, nil), []int64{math.MinInt64, math.MinInt64 + 3})
}

func TestExactSizeBoundary(t *testing.T) {
	// Few keys: the budget is ExactMinBits.
	for _, c := range []struct {
		hi    int64
		exact bool
	}{{ExactMinBits - 1, true}, {ExactMinBits, false}} {
		f := NewInts([]int64{0, c.hi}, nil)
		if _, ok := f.Exact(); ok != c.exact {
			t.Fatalf("span %d: exact = %v, want %v", c.hi+1, ok, c.exact)
		}
	}
	// Many keys: the budget is the Bloom filter's bit count for them.
	keys := keysOf(0, 10_000, 20_000, 3)
	budget := int64(bloomBits(len(keys)+1, DefaultBitsPerKey))
	if budget <= ExactMinBits {
		t.Fatalf("test needs a Bloom budget above ExactMinBits, got %d", budget)
	}
	for _, c := range []struct {
		hi    int64
		exact bool
	}{{budget - 1, true}, {budget, false}} {
		f := NewInts(append(keys, c.hi), nil)
		_, ok := f.Exact()
		if ok != c.exact {
			t.Fatalf("span %d of budget %d: exact = %v, want %v", c.hi+1, budget, ok, c.exact)
		}
		if ok && f.SizeBytes() > int(budget/8) {
			t.Fatalf("exact filter of %d bytes exceeds the budget of %d bits", f.SizeBytes(), budget)
		}
	}
}

func TestExactEmptyBuildAndNulls(t *testing.T) {
	nulls := ibits.New(3)
	nulls.Set(0)
	nulls.Set(1)
	nulls.Set(2)
	for name, f := range map[string]*Filter{
		"no keys":   NewInts(nil, nil),
		"all NULL":  NewInts([]int64{0, 5, -3}, nulls),
		"zero rows": NewInts([]int64{}, nil),
	} {
		if _, ok := f.Exact(); !ok {
			t.Fatalf("%s: empty build is not exact", name)
		}
		for _, v := range []int64{0, 5, -3, math.MinInt64, math.MaxInt64} {
			if f.MayContainInt(v) || f.MayContain(sqltypes.NewInt(v)) {
				t.Fatalf("%s: empty filter accepts %d", name, v)
			}
		}
	}
	// A NULL row's stored key neither joins the set nor widens the span.
	nulls = ibits.New(3)
	nulls.Set(1)
	f := NewInts([]int64{1 << 40, math.MinInt64, 1<<40 + 2}, nulls)
	checkExact(t, f, []int64{1 << 40, 1<<40 + 2})
}

func TestBitmapOverlaps(t *testing.T) {
	b := Bitmap{Lo: 10, Span: 5} // keys 10..14
	for _, c := range []struct {
		lo, hi int64
		want   bool
	}{
		{0, 9, false}, {0, 10, true}, {11, 12, true}, {14, 20, true}, {15, 20, false},
		{math.MinInt64, math.MaxInt64, true}, {math.MinInt64, 9, false}, {15, math.MaxInt64, false},
	} {
		if got := b.Overlaps(c.lo, c.hi); got != c.want {
			t.Fatalf("[%d, %d] overlaps keys 10..14 = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	if (Bitmap{}).Overlaps(math.MinInt64, math.MaxInt64) {
		t.Fatal("an empty bitmap overlaps a range")
	}
	top := Bitmap{Lo: math.MaxInt64 - 1, Span: 2}
	if !top.Overlaps(math.MaxInt64, math.MaxInt64) || top.Overlaps(0, math.MaxInt64-2) {
		t.Fatal("a key range ending at math.MaxInt64 overlaps wrongly")
	}
}

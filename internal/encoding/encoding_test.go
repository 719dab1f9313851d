package encoding

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"apollo/internal/bits"
)

func TestBitWidth(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {255, 8}, {256, 9}, {math.MaxUint64, 64}}
	for _, c := range cases {
		if got := BitWidth(c.v); got != c.want {
			t.Errorf("BitWidth(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestPackRoundTrip(t *testing.T) {
	cases := [][]uint64{
		{},
		{0},
		{0, 0, 0},
		{1, 2, 3, 4, 5, 6, 7},
		{255, 0, 128, 64},
		{1 << 33, 7, 1<<40 - 1},
		{math.MaxUint64, 0, math.MaxUint64},
	}
	for _, vals := range cases {
		p := PackSlice(vals)
		out := p.DecodeAll(make([]uint64, p.N))
		if len(vals) == 0 && len(out) == 0 {
			continue
		}
		if !reflect.DeepEqual(out, vals) {
			t.Errorf("round trip %v -> %v", vals, out)
		}
		for i, v := range vals {
			if got := p.Get(i); got != v {
				t.Errorf("Get(%d) = %d, want %d", i, got, v)
			}
		}
	}
}

func TestPackMarshalRoundTrip(t *testing.T) {
	vals := []uint64{9, 1, 5, 1 << 20, 0, 77}
	p := PackSlice(vals)
	buf := p.Marshal(nil)
	q, n, err := UnmarshalPacked(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("unmarshal: %v (n=%d of %d)", err, n, len(buf))
	}
	if !reflect.DeepEqual(q.DecodeAll(make([]uint64, q.N)), vals) {
		t.Fatal("marshal round trip mismatch")
	}
	// Corruption: truncate.
	if _, _, err := UnmarshalPacked(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated packed not detected")
	}
}

// Every width, at lengths whose packed data ends with fewer than eight bytes
// after the last value's first byte (where the word load must fall back to
// the bounded tail read) and at lengths long enough for the fast path:
// Get and chunked DecodeRange from every start match the packed input.
func TestPackedAccessAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for w := 1; w <= 64; w++ {
		for _, n := range []int{1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200} {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() & maskFor(w)
			}
			vals[n-1] = maskFor(w) // the last value uses every bit of its width
			p := PackSliceWidth(vals, w)
			checkAccess(t, "packed", vals, p.Get, p.DecodeRange)
		}
	}
}

// The run cursor agrees with Get across runs of length 1 (every read moves
// a run) and long runs (reads stay in one), in ascending, sparse and random
// order.
func TestRLECursor(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var vals []uint64
	for run := 0; run < 300; run++ {
		v, n := rng.Uint64()%7, 1+rng.Intn(3)
		if run%10 == 0 {
			n = 1 + rng.Intn(200)
		}
		for k := 0; k < n; k++ {
			vals = append(vals, v)
		}
	}
	r := RLEEncode(vals)
	for seed := int64(0); seed < 16; seed++ {
		checkCursor(t, r, vals, seed)
	}
	checkAccess(t, "rle", vals, r.Get, r.DecodeRange)
}

func TestPackGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PackSlice([]uint64{1}).Get(1)
}

func TestRLERoundTrip(t *testing.T) {
	cases := [][]uint64{
		{},
		{5},
		{5, 5, 5, 5},
		{1, 2, 3},
		{7, 7, 1, 1, 1, 9},
	}
	for _, vals := range cases {
		r := RLEEncode(vals)
		if r.Len() != len(vals) {
			t.Fatalf("Len = %d, want %d", r.Len(), len(vals))
		}
		out := r.DecodeAll(make([]uint64, r.Len()))
		for i := range vals {
			if out[i] != vals[i] {
				t.Fatalf("decode %v -> %v", vals, out)
			}
			if got := r.Get(i); got != vals[i] {
				t.Fatalf("Get(%d) = %d, want %d", i, got, vals[i])
			}
		}
	}
	if RLEEncode([]uint64{7, 7, 1, 1, 1, 9}).Runs() != 3 {
		t.Fatal("run count wrong")
	}
}

func TestRLEMarshalRoundTrip(t *testing.T) {
	vals := []uint64{3, 3, 3, 8, 8, 1, 1 << 50, 1 << 50}
	r := RLEEncode(vals)
	buf := r.Marshal(nil)
	q, n, err := UnmarshalRLE(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("unmarshal: %v", err)
	}
	out := q.DecodeAll(make([]uint64, q.Len()))
	if !reflect.DeepEqual(out, vals) {
		t.Fatal("marshal round trip mismatch")
	}
	if _, _, err := UnmarshalRLE(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated rle not detected")
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Add("apple")
	b := d.Add("banana")
	if a2 := d.Add("apple"); a2 != a {
		t.Fatal("re-add changed id")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.Value(b) != "banana" {
		t.Fatal("Value wrong")
	}
	if id, ok := d.Lookup("banana"); !ok || id != b {
		t.Fatal("Lookup wrong")
	}
	if _, ok := d.Lookup("cherry"); ok {
		t.Fatal("phantom lookup")
	}

	buf := d.Marshal(nil)
	q, n, err := UnmarshalDict(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("unmarshal: %v", err)
	}
	if q.Len() != 2 || q.Value(0) != "apple" || q.Value(1) != "banana" {
		t.Fatal("dict marshal round trip mismatch")
	}
}

func TestAnalyzeIntsOffset(t *testing.T) {
	vals := []int64{105, 103, 101, 199}
	enc, codes := AnalyzeInts(vals, nil)
	for i, v := range vals {
		if got := enc.DecodeInt(codes[i]); got != v {
			t.Fatalf("decode code[%d]: got %d, want %d", i, got, v)
		}
	}
	// Max code should be small thanks to rebasing.
	if MaxValue(codes) > 98 {
		t.Fatalf("codes not rebased: max=%d", MaxValue(codes))
	}
}

func TestAnalyzeIntsScaled(t *testing.T) {
	vals := []int64{1000, 5000, 123000, -2000}
	enc, codes := AnalyzeInts(vals, nil)
	if enc.Kind != NumScaled || enc.Scale < 3 {
		t.Fatalf("expected scaled encoding, got %v", enc)
	}
	for i, v := range vals {
		if got := enc.DecodeInt(codes[i]); got != v {
			t.Fatalf("decode: got %d, want %d", got, v)
		}
	}
}

func TestAnalyzeIntsWithNulls(t *testing.T) {
	nulls := bits.New(4)
	nulls.Set(0)
	vals := []int64{math.MinInt64, 100, 200, 300} // position 0 is NULL garbage
	enc, codes := AnalyzeInts(vals, nulls)
	for i := 1; i < 4; i++ {
		if got := enc.DecodeInt(codes[i]); got != vals[i] {
			t.Fatalf("decode: got %d, want %d", got, vals[i])
		}
	}
	if codes[0] != 0 {
		t.Fatal("null slot should have code 0")
	}
}

func TestAnalyzeIntsAllNull(t *testing.T) {
	nulls := bits.New(2)
	nulls.Set(0)
	nulls.Set(1)
	enc, codes := AnalyzeInts([]int64{9, 9}, nulls)
	if enc.Kind != NumOffset || enc.Base != 0 || codes[0] != 0 {
		t.Fatalf("all-null encoding: %v %v", enc, codes)
	}
}

func TestAnalyzeFloatsScaled(t *testing.T) {
	vals := []float64{1.25, 3.50, 0.75, -2.25}
	enc, codes := AnalyzeFloats(vals, nil)
	if enc.Kind != NumFloatScaled {
		t.Fatalf("expected float-scaled, got %v", enc)
	}
	for i, v := range vals {
		if got := enc.DecodeFloat(codes[i]); got != v {
			t.Fatalf("decode: got %v, want %v", got, v)
		}
	}
}

func TestAnalyzeFloatsRaw(t *testing.T) {
	vals := []float64{math.Pi, math.E, 1.0 / 3.0}
	enc, codes := AnalyzeFloats(vals, nil)
	if enc.Kind != NumFloatRaw {
		t.Fatalf("expected raw, got %v", enc)
	}
	for i, v := range vals {
		if got := enc.DecodeFloat(codes[i]); got != v {
			t.Fatalf("decode: got %v, want %v", got, v)
		}
	}
}

func TestReorderReducesRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 5000
	lowCard := make([]uint64, n)  // 4 distinct values, shuffled
	midCard := make([]uint64, n)  // 50 distinct values
	highCard := make([]uint64, n) // nearly unique
	for i := 0; i < n; i++ {
		lowCard[i] = uint64(rng.Intn(4))
		midCard[i] = uint64(rng.Intn(50))
		highCard[i] = uint64(rng.Intn(100000))
	}
	cols := [][]uint64{highCard, lowCard, midCard}
	before := RunCount(lowCard) + RunCount(midCard) + RunCount(highCard)
	perm := Reorder(cols)
	if perm == nil {
		t.Fatal("expected a permutation")
	}
	after := 0
	for _, c := range cols {
		after += RunCount(ApplyPerm(c, perm))
	}
	if after >= before {
		t.Fatalf("reorder did not reduce runs: before=%d after=%d", before, after)
	}
	// Low-cardinality column must collapse to ~4 runs.
	if got := RunCount(ApplyPerm(lowCard, perm)); got > 8 {
		t.Fatalf("low-cardinality column has %d runs after reorder", got)
	}
}

func TestReorderPermIsPermutation(t *testing.T) {
	cols := [][]uint64{{3, 1, 2, 1, 3, 1}}
	perm := Reorder(cols)
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			t.Fatalf("not a permutation: %v", perm)
		}
		seen[p] = true
	}
}

func TestReorderDegenerate(t *testing.T) {
	if Reorder(nil) != nil {
		t.Fatal("nil cols should return nil")
	}
	if Reorder([][]uint64{{1}}) != nil {
		t.Fatal("single row should return nil")
	}
}

// Property: pack/unpack round-trips arbitrary data at its natural width.
func TestQuickPackRoundTrip(t *testing.T) {
	f := func(vals []uint64) bool {
		p := PackSlice(vals)
		out := p.DecodeAll(make([]uint64, p.N))
		for i := range vals {
			if out[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RLE marshal/unmarshal round-trips and preserves random access.
func TestQuickRLE(t *testing.T) {
	f := func(raw []uint8) bool {
		vals := make([]uint64, len(raw))
		for i, b := range raw {
			vals[i] = uint64(b % 5) // force runs
		}
		r := RLEEncode(vals)
		buf := r.Marshal(nil)
		q, _, err := UnmarshalRLE(buf)
		if err != nil {
			return false
		}
		for i := range vals {
			if q.Get(i) != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: value encoding of ints round-trips (nulls excluded).
func TestQuickValueEncInts(t *testing.T) {
	f := func(vals []int64) bool {
		enc, codes := AnalyzeInts(vals, nil)
		for i, v := range vals {
			if enc.DecodeInt(codes[i]) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: value encoding of floats round-trips bit-exactly for raw and
// value-exactly for scaled.
func TestQuickValueEncFloats(t *testing.T) {
	f := func(raw []int32) bool {
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r) / 100 // prices: two decimal places
		}
		enc, codes := AnalyzeFloats(vals, nil)
		for i, v := range vals {
			if enc.DecodeFloat(codes[i]) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

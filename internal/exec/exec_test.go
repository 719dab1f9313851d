package exec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"apollo/internal/expr"
	"apollo/internal/sqltypes"
)

func TestEncodeKeyEqualValuesCollide(t *testing.T) {
	pairs := [][2][]sqltypes.Value{
		{{sqltypes.NewInt(7)}, {sqltypes.NewFloat(7.0)}},
		{{sqltypes.NewInt(7), sqltypes.NewString("x")}, {sqltypes.NewFloat(7), sqltypes.NewString("x")}},
		{{sqltypes.NewDate(10)}, {sqltypes.NewInt(10)}},
	}
	for _, p := range pairs {
		a := string(EncodeKey(nil, p[0]))
		b := string(EncodeKey(nil, p[1]))
		if a != b {
			t.Errorf("EncodeKey(%v) != EncodeKey(%v)", p[0], p[1])
		}
	}
}

func TestEncodeKeyDistinguishes(t *testing.T) {
	cases := [][2][]sqltypes.Value{
		{{sqltypes.NewInt(1)}, {sqltypes.NewInt(2)}},
		{{sqltypes.NewString("ab"), sqltypes.NewString("c")}, {sqltypes.NewString("a"), sqltypes.NewString("bc")}},
		{{sqltypes.NewString("")}, {sqltypes.NewNull(sqltypes.String)}},
		{{sqltypes.NewFloat(1.5)}, {sqltypes.NewFloat(1.25)}},
		{{sqltypes.NewInt(0)}, {sqltypes.NewNull(sqltypes.Int64)}},
	}
	for _, c := range cases {
		a := string(EncodeKey(nil, c[0]))
		b := string(EncodeKey(nil, c[1]))
		if a == b {
			t.Errorf("EncodeKey(%v) == EncodeKey(%v)", c[0], c[1])
		}
	}
}

// Property: EncodeKey is injective on (int, string) pairs.
func TestQuickEncodeKeyInjective(t *testing.T) {
	f := func(a1, a2 int64, s1, s2 string) bool {
		k1 := string(EncodeKey(nil, []sqltypes.Value{sqltypes.NewInt(a1), sqltypes.NewString(s1)}))
		k2 := string(EncodeKey(nil, []sqltypes.Value{sqltypes.NewInt(a2), sqltypes.NewString(s2)}))
		if a1 == a2 && s1 == s2 {
			return k1 == k2
		}
		return k1 != k2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyHasNull(t *testing.T) {
	if KeyHasNull([]sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewString("x")}) {
		t.Fatal("no nulls present")
	}
	if !KeyHasNull([]sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewNull(sqltypes.String)}) {
		t.Fatal("null not detected")
	}
}

func TestCompareRows(t *testing.T) {
	col0 := expr.NewColRef(0, "a", sqltypes.Int64)
	col1 := expr.NewColRef(1, "b", sqltypes.String)
	keys := []SortKey{{E: col0}, {E: col1, Desc: true}}
	a := sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewString("x")}
	b := sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewString("y")}
	c := sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewString("a")}
	if CompareRows(keys, a, b) <= 0 { // y before x under DESC
		t.Fatal("desc tiebreak wrong")
	}
	if CompareRows(keys, a, c) >= 0 {
		t.Fatal("primary key ordering wrong")
	}
	if CompareRows(keys, a, a) != 0 {
		t.Fatal("self-compare wrong")
	}
}

func TestAggSpecResultType(t *testing.T) {
	fcol := expr.NewColRef(0, "f", sqltypes.Float64)
	icol := expr.NewColRef(1, "i", sqltypes.Int64)
	scol := expr.NewColRef(2, "s", sqltypes.String)
	cases := []struct {
		spec AggSpec
		want sqltypes.Type
	}{
		{AggSpec{Kind: CountStar}, sqltypes.Int64},
		{AggSpec{Kind: Count, Arg: scol}, sqltypes.Int64},
		{AggSpec{Kind: Sum, Arg: icol}, sqltypes.Int64},
		{AggSpec{Kind: Sum, Arg: fcol}, sqltypes.Float64},
		{AggSpec{Kind: Avg, Arg: icol}, sqltypes.Float64},
		{AggSpec{Kind: Min, Arg: scol}, sqltypes.String},
		{AggSpec{Kind: Max, Arg: fcol}, sqltypes.Float64},
	}
	for _, c := range cases {
		if got := c.spec.ResultType(); got != c.want {
			t.Errorf("%v: ResultType = %v, want %v", c.spec, got, c.want)
		}
	}
}

// A compensated sum recovers what plain summation loses, agrees with itself
// across orders and merge splits, and keeps IEEE overflow and NaN results.
func TestFloatSum(t *testing.T) {
	var f FloatSum
	for _, x := range []float64{1e16, 1, -1e16} {
		f.Add(x)
	}
	if got := f.Value(); got != 1 {
		t.Fatalf("1e16 + 1 - 1e16 = %v, want 1", got)
	}

	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(rng.Intn(10000)) / 100 * math.Pow(10, float64(rng.Intn(7)-3))
	}
	var serial FloatSum
	for _, x := range xs {
		serial.Add(x)
	}
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(xs))
		parts := make([]FloatSum, 1+trial%4)
		for k, i := range perm {
			parts[k%len(parts)].Add(xs[i])
		}
		var merged FloatSum
		for _, p := range parts {
			merged.Merge(p)
		}
		if a, b := merged.Value(), serial.Value(); math.Abs(a-b) > 2*math.Abs(b)*0x1p-52 {
			t.Fatalf("trial %d: merged %v vs serial %v", trial, a, b)
		}
	}

	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{math.MaxFloat64, math.MaxFloat64, 1}, math.Inf(1)},
		{[]float64{1, math.Inf(-1), 2}, math.Inf(-1)},
		{[]float64{math.Inf(1), math.Inf(-1)}, math.NaN()},
	} {
		var f FloatSum
		for _, x := range c.xs {
			f.Add(x)
		}
		if got := f.Value(); got != c.want && !(math.IsNaN(got) && math.IsNaN(c.want)) {
			t.Errorf("sum %v = %v, want %v", c.xs, got, c.want)
		}
	}
}

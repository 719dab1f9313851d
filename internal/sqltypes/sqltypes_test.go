package sqltypes

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTypeStringRoundTrip(t *testing.T) {
	for _, typ := range []Type{Int64, Float64, Bool, String, Date} {
		if got := ParseType(typ.String()); got != typ {
			t.Errorf("ParseType(%q) = %v, want %v", typ.String(), got, typ)
		}
	}
	if ParseType("BLOB") != Unknown {
		t.Error("unknown type name must parse to Unknown")
	}
	aliases := map[string]Type{"INT": Int64, "REAL": Float64, "TEXT": String, "BIT": Bool}
	for name, want := range aliases {
		if got := ParseType(name); got != want {
			t.Errorf("ParseType(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestSchemaOps(t *testing.T) {
	s := NewSchema(
		Column{Name: "a", Typ: Int64},
		Column{Name: "b", Typ: String, Nullable: true},
		Column{Name: "c", Typ: Float64},
	)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.ColIndex("b") != 1 || s.ColIndex("zzz") != -1 {
		t.Fatal("ColIndex wrong")
	}
	p := s.Project([]int{2, 0})
	if p.Cols[0].Name != "c" || p.Cols[1].Name != "a" {
		t.Fatal("Project wrong")
	}
	cat := s.Concat(p)
	if cat.Len() != 5 || cat.Cols[3].Name != "c" {
		t.Fatal("Concat wrong")
	}
	if !s.Equal(NewSchema(s.Cols...)) || s.Equal(p) {
		t.Fatal("Equal wrong")
	}
	want := "(a BIGINT, b VARCHAR NULL, c DOUBLE)"
	if got := s.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestDateConversions(t *testing.T) {
	days, err := DateFromString("1970-01-02")
	if err != nil || days != 1 {
		t.Fatalf("DateFromString = %d, %v", days, err)
	}
	days, err = DateFromString("1994-01-15")
	if err != nil {
		t.Fatal(err)
	}
	if got := DateToString(days); got != "1994-01-15" {
		t.Fatalf("round trip = %q", got)
	}
	if _, err := DateFromString("not-a-date"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(2.0), 0},
		{NewString("abc"), NewString("abd"), -1},
		{NewBool(false), NewBool(true), -1},
		{NewDate(10), NewDate(20), -1},
		{NewNull(Int64), NewInt(-100), -1}, // NULLs first
		{NewInt(0), NewNull(Int64), 1},
		{NewNull(Int64), NewNull(String), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// IntegralFloat takes every whole float up to 2^53 in magnitude, where
// float64 holds each integer exactly, and nothing past it or fractional.
func TestIntegralFloat(t *testing.T) {
	for _, c := range []struct {
		f  float64
		i  int64
		ok bool
	}{
		{5, 5, true}, {-0.0, 0, true}, {1e15, 1e15, true}, {-1e15, -1e15, true},
		{1 << 53, 1 << 53, true}, {-(1 << 53), -(1 << 53), true},
		{1 << 54, 0, false}, {2.5, 0, false}, {math.NaN(), 0, false}, {math.Inf(1), 0, false},
	} {
		if i, ok := IntegralFloat(c.f); i != c.i || ok != c.ok {
			t.Errorf("IntegralFloat(%v) = %d, %v; want %d, %v", c.f, i, ok, c.i, c.ok)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(-7), "-7"},
		{NewFloat(2.5), "2.5"},
		{NewFloat(3), "3.0"},
		{NewBool(true), "true"},
		{NewString("hi"), "hi"},
		{NewDate(0), "1970-01-01"},
		{NewNull(Int64), "NULL"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func testSchema() *Schema {
	return NewSchema(
		Column{Name: "i", Typ: Int64, Nullable: true},
		Column{Name: "f", Typ: Float64, Nullable: true},
		Column{Name: "b", Typ: Bool, Nullable: true},
		Column{Name: "s", Typ: String, Nullable: true},
		Column{Name: "d", Typ: Date, Nullable: true},
	)
}

func TestRowCodecRoundTrip(t *testing.T) {
	schema := testSchema()
	rows := []Row{
		{NewInt(0), NewFloat(0), NewBool(false), NewString(""), NewDate(0)},
		{NewInt(-1 << 40), NewFloat(math.Pi), NewBool(true), NewString("héllo"), NewDate(20000)},
		{NewNull(Int64), NewNull(Float64), NewNull(Bool), NewNull(String), NewNull(Date)},
		{NewInt(math.MaxInt64), NewFloat(math.Inf(1)), NewBool(true), NewString("x\x00y"), NewDate(-1)},
	}
	var buf []byte
	for _, r := range rows {
		buf = EncodeRow(buf, schema, r)
	}
	pos := 0
	for i, want := range rows {
		got, n, err := DecodeRow(buf[pos:], schema)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		pos += n
		for j := range want {
			if want[j].Null != got[j].Null || (!want[j].Null && Compare(want[j], got[j]) != 0) {
				t.Fatalf("row %d col %d: got %v, want %v", i, j, got[j], want[j])
			}
		}
	}
	if pos != len(buf) {
		t.Fatalf("decoded %d bytes of %d", pos, len(buf))
	}
}

func TestRowCodecTruncation(t *testing.T) {
	schema := testSchema()
	row := Row{NewInt(12345), NewFloat(1.5), NewBool(true), NewString("abcdef"), NewDate(99)}
	buf := EncodeRow(nil, schema, row)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeRow(buf[:cut], schema); err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

// A hostile string length whose uint64 value overflows int must be rejected,
// not turned into a negative slice bound (found by FuzzBinaryLoad).
func TestRowCodecHostileStringLength(t *testing.T) {
	schema := NewSchema(Column{Name: "s", Typ: String})
	buf := []byte{0x00} // null bitmap: s is non-NULL
	buf = binary.AppendUvarint(buf, math.MaxUint64-6)
	buf = append(buf, "payload"...)
	if _, _, err := DecodeRow(buf, schema); err == nil {
		t.Fatal("overflowing string length not detected")
	}
}

// Property: encode/decode round-trips arbitrary rows.
func TestQuickRowCodec(t *testing.T) {
	schema := testSchema()
	rng := rand.New(rand.NewSource(1))
	f := func(i int64, fl float64, b bool, s string, d int16, nullMask uint8) bool {
		row := Row{NewInt(i), NewFloat(fl), NewBool(b), NewString(s), NewDate(int64(d))}
		for j := range row {
			if nullMask&(1<<uint(j)) != 0 {
				row[j] = NewNull(schema.Cols[j].Typ)
			}
		}
		buf := EncodeRow(nil, schema, row)
		got, n, err := DecodeRow(buf, schema)
		if err != nil || n != len(buf) {
			return false
		}
		for j := range row {
			if row[j].Null != got[j].Null {
				return false
			}
			if row[j].Null {
				continue
			}
			if schema.Cols[j].Typ == Float64 {
				if math.Float64bits(row[j].F) != math.Float64bits(got[j].F) {
					return false
				}
			} else if Compare(row[j], got[j]) != 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

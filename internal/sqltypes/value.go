package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Value is a scalar SQL value. A Value carries its type tag so that row-mode
// execution can dispatch without a schema at hand. The zero Value is a typed
// NULL of Unknown type.
type Value struct {
	Typ  Type
	Null bool
	I    int64 // Int64 payload; Bool as 0/1; Date as days since epoch
	F    float64
	S    string
}

// Constructors.

// NewInt returns an Int64 value.
func NewInt(v int64) Value { return Value{Typ: Int64, I: v} }

// NewFloat returns a Float64 value.
func NewFloat(v float64) Value { return Value{Typ: Float64, F: v} }

// NewBool returns a Bool value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{Typ: Bool, I: i}
}

// NewString returns a String value.
func NewString(v string) Value { return Value{Typ: String, S: v} }

// NewDate returns a Date value from days since the Unix epoch.
func NewDate(days int64) Value { return Value{Typ: Date, I: days} }

// NewNull returns a NULL of the given type.
func NewNull(t Type) Value { return Value{Typ: t, Null: true} }

// Bool reports the value's truth; only meaningful for Bool values.
func (v Value) Bool() bool { return !v.Null && v.I != 0 }

// AsFloat converts numeric values to float64 for mixed arithmetic.
func (v Value) AsFloat() float64 {
	if v.Typ == Float64 {
		return v.F
	}
	return float64(v.I)
}

// DateFromString parses "YYYY-MM-DD" into days since the Unix epoch.
func DateFromString(s string) (int64, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("sqltypes: invalid date %q: %w", s, err)
	}
	return t.Unix() / 86400, nil
}

// DateToString formats days since the Unix epoch as "YYYY-MM-DD".
func DateToString(days int64) string {
	return time.Unix(days*86400, 0).UTC().Format("2006-01-02")
}

// String renders the value in SQL-literal-like form; NULLs render as "NULL".
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Typ {
	case Int64:
		return strconv.FormatInt(v.I, 10)
	case Float64:
		// Render integral floats with one decimal so they read as floats.
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return strconv.FormatFloat(v.F, 'f', 1, 64)
		}
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case Bool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case String:
		return v.S
	case Date:
		return DateToString(v.I)
	default:
		return "UNKNOWN"
	}
}

// Compare orders two values of the same type family. NULL sorts before all
// non-NULL values (NULLS FIRST), matching the engine's sort semantics.
// Comparing Int64 with Float64 compares numerically.
func Compare(a, b Value) int {
	if a.Null || b.Null {
		switch {
		case a.Null && b.Null:
			return 0
		case a.Null:
			return -1
		default:
			return 1
		}
	}
	if a.Typ == Float64 || b.Typ == Float64 {
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	switch a.Typ {
	case String:
		return strings.Compare(a.S, b.S)
	default: // Int64, Bool, Date — integer payloads
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	}
}

// Equal reports SQL equality for non-NULL semantics; two NULLs are Equal here
// (useful for grouping), distinct from the three-valued `=` handled by expr.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// IntegralFloat returns f as an integer when f is a whole number of
// magnitude at most 2^53, where every integer is exact in float64. It is the
// one rule by which an integral float keys, hashes and filters like the equal
// integer (exec.EncodeKey, the bloom filters, the batch key hasher).
func IntegralFloat(f float64) (int64, bool) {
	if f == math.Trunc(f) && math.Abs(f) <= 1<<53 {
		return int64(f), true
	}
	return 0, false
}

// Row is an ordered tuple of values.
type Row []Value

// Clone deep-copies a row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row as "[v1 v2 ...]".
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

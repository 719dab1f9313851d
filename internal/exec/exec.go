// Package exec holds pieces shared by the row-mode and batch-mode execution
// engines: aggregate specifications, sort keys, join types, and row-key
// encoding for hash tables.
package exec

import (
	"encoding/binary"
	"fmt"
	"math"

	"apollo/internal/expr"
	"apollo/internal/sqltypes"
)

// AggKind identifies an aggregate function.
type AggKind uint8

// Aggregate functions.
const (
	CountStar AggKind = iota // COUNT(*)
	Count                    // COUNT(expr): non-NULL count
	Sum
	Avg
	Min
	Max
)

func (k AggKind) String() string {
	return [...]string{"COUNT(*)", "COUNT", "SUM", "AVG", "MIN", "MAX"}[k]
}

// AggSpec describes one aggregate in a GROUP BY or scalar aggregation.
type AggSpec struct {
	Kind     AggKind
	Arg      expr.Expr // nil for COUNT(*)
	Distinct bool      // COUNT(DISTINCT x), SUM(DISTINCT x), ...
	Name     string    // output column name
}

// ResultType returns the aggregate's output type.
func (a AggSpec) ResultType() sqltypes.Type {
	switch a.Kind {
	case CountStar, Count:
		return sqltypes.Int64
	case Avg:
		return sqltypes.Float64
	case Sum:
		if a.Arg != nil && a.Arg.Type() == sqltypes.Float64 {
			return sqltypes.Float64
		}
		return sqltypes.Int64
	default: // Min, Max
		if a.Arg != nil {
			return a.Arg.Type()
		}
		return sqltypes.Int64
	}
}

func (a AggSpec) String() string {
	d := ""
	if a.Distinct {
		d = "DISTINCT "
	}
	if a.Kind == CountStar {
		return "COUNT(*)"
	}
	return fmt.Sprintf("%s(%s%s)", a.Kind, d, a.Arg)
}

// FloatSum is a compensated (Neumaier) float64 sum: S is the running sum
// and C the rounding error lost from it so far. The total S+C is accurate to
// about one ulp whatever order the terms arrive in, so aggregates whose
// partial sums are merged across workers agree with the serial result
// instead of drifting with the batch-to-worker assignment.
type FloatSum struct{ S, C float64 }

// Add folds x into the sum.
func (f *FloatSum) Add(x float64) {
	t := f.S + x
	if math.Abs(f.S) >= math.Abs(x) {
		f.C += (f.S - t) + x
	} else {
		f.C += (x - t) + f.S
	}
	f.S = t
}

// Merge folds another partial sum into f.
func (f *FloatSum) Merge(o FloatSum) {
	f.Add(o.S)
	f.C += o.C
}

// Value returns the compensated total. Once the running sum overflows to
// infinity (or turns NaN) the compensation is meaningless and S alone is the
// answer.
func (f FloatSum) Value() float64 {
	if v := f.S + f.C; v == v {
		return v
	}
	return f.S
}

// SortKey orders by an expression, optionally descending.
type SortKey struct {
	E    expr.Expr
	Desc bool
}

// CompareRows orders two rows under the sort keys.
func CompareRows(keys []SortKey, a, b sqltypes.Row) int {
	for _, k := range keys {
		c := sqltypes.Compare(k.E.Eval(a), k.E.Eval(b))
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// JoinType is the join variant. The paper's §5 emphasizes that the upcoming
// release supports the full repertoire in batch mode (2012 supported only
// inner joins).
type JoinType uint8

// Join types.
const (
	Inner JoinType = iota
	LeftOuter
	RightOuter
	FullOuter
	LeftSemi
	LeftAnti
)

func (j JoinType) String() string {
	return [...]string{"INNER", "LEFT OUTER", "RIGHT OUTER", "FULL OUTER", "LEFT SEMI", "LEFT ANTI"}[j]
}

// EncodeKey appends a canonical byte encoding of the key values to dst, for
// use as a hash-table map key. Values that compare equal encode identically
// (Int64 vs integral Float64 included); NULL encodes distinctly so callers
// can decide NULL-join semantics separately.
func EncodeKey(dst []byte, vals []sqltypes.Value) []byte {
	for _, v := range vals {
		if v.Null {
			dst = append(dst, 0)
			continue
		}
		switch v.Typ {
		case sqltypes.String:
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		case sqltypes.Float64:
			if i, ok := sqltypes.IntegralFloat(v.F); ok {
				dst = append(dst, 2)
				dst = binary.AppendVarint(dst, i)
			} else {
				dst = append(dst, 3)
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
			}
		default:
			dst = append(dst, 2)
			dst = binary.AppendVarint(dst, v.I)
		}
	}
	return dst
}

// KeyHasNull reports whether any key value is NULL (such keys never match in
// equi-joins).
func KeyHasNull(vals []sqltypes.Value) bool {
	for _, v := range vals {
		if v.Null {
			return true
		}
	}
	return false
}

package main

import (
	"hash/fnv"
	"math"
	"strconv"

	"apollo"
)

// answer is an order-insensitive digest of a result set: the row count and
// the wrapping sum of a 64-bit hash of each row. Two results with the same
// multiset of rows have the same answer whatever order the rows came in, so
// a batch-mode result can be checked against the row-mode oracle without
// agreeing on a sort order. Duplicates count: adding a row twice adds its
// hash twice.
type answer struct {
	rows int
	sum  uint64
}

func (a *answer) add(rowHash uint64) {
	a.rows++
	a.sum += rowHash
}

// Fields are rendered to one canonical text before hashing so that a value
// hashes the same whether it came out of the engine as a typed Value or off
// the wire as JSON (where every number is a float64 and a date a string).
// Whole numbers print as integers; other floats with the shortest digits
// that round-trip.
func canonNumber(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func canonValue(v apollo.Value) string {
	switch {
	case v.Null:
		return "\x00"
	case v.Typ == apollo.Int64:
		return strconv.FormatInt(v.I, 10)
	case v.Typ == apollo.Float64:
		return canonNumber(v.F)
	default: // Bool, Date and String already print as the wire sends them
		return v.String()
	}
}

func canonWire(v any) string {
	switch x := v.(type) {
	case nil:
		return "\x00"
	case float64:
		return canonNumber(x)
	case bool:
		return strconv.FormatBool(x)
	case string:
		return x
	default:
		return "?" // the wire codec sends nothing else; never equals a real field
	}
}

func hashFields(n int, field func(i int) string) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		h.Write([]byte(field(i)))
		h.Write([]byte{0x1f})
	}
	return h.Sum64()
}

func hashRow(r apollo.Row) uint64 {
	return hashFields(len(r), func(i int) string { return canonValue(r[i]) })
}

func hashWireRow(r []any) uint64 {
	return hashFields(len(r), func(i int) string { return canonWire(r[i]) })
}

func answerOf(rows []apollo.Row) answer {
	var a answer
	for _, r := range rows {
		a.add(hashRow(r))
	}
	return a
}

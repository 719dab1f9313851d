package batchexec

import (
	"math"

	"apollo/internal/encoding"
	"apollo/internal/sqltypes"
	"apollo/internal/vector"
)

// The key kernel of the hash operators. Each key column maps its values to
// small ids (keyCol); the ids of a row, each in its column's width, pack
// into one uint64, and that key indexes the operator's table: a dense slice
// while the widths sum to at most denseKeyBits, a map beyond. A float key
// column, or widths summing past packedKeyBits, fall back to exec.EncodeKey
// bytes; nothing else in the operators keys on them. Bit 63 of a packed key
// marks a row with a value that has no id, which no table entry can hold
// (see keyCol.fill).
//
// Every row a table resolves comes to it in a batch: operator input, spill
// partitions read back, and the groups of the partial tables ParallelAgg
// merges, fed in as key batches. A DISTINCT aggregate's string argument gets
// its ids from a keyCol of its own.
//
// Partitioning (the join exchange, and the spills of hash join and hash
// aggregation) hashes values instead (keyHasher): ids belong to one table,
// and a partition must be known before its table exists.
const (
	denseKeyBits = 14
	noID         = ^uint64(0)
	memoLimit    = 1 << 14 // codes a per-code memo covers; higher codes decode
)

// packedKeyBits is a variable so that tests can force the fallback to the
// encoded map; it never exceeds 63.
var packedKeyBits uint = 63

// keyCol hands out the ids of one key column: 0 is NULL, values get 1, 2,
// ... in order of appearance, or, after setSpan, v-lo+1 with no id map.
// Strings share one id whether they arrive dict-coded or materialized; the
// codes of each dictionary go through a per-code memo, so a code resolves at
// most once.
type keyCol struct {
	n     uint64 // ids handed out
	span  bool   // ids are v-lo+1 for lo <= v < lo+n
	lo    int64
	ints  map[int64]uint64
	strs  map[string]uint64
	memos map[*encoding.Dict][]uint64 // code -> id (or noID); 0 while unresolved
}

// newKeyCol returns the id source of a key column of type typ.
func newKeyCol(typ sqltypes.Type) keyCol {
	if typ == sqltypes.String {
		return keyCol{strs: make(map[string]uint64)}
	}
	return keyCol{ints: make(map[int64]uint64)}
}

// setSpan gives the integer column v, whose first n rows are final, span
// ids when its non-NULL values span at most 2^denseKeyBits: the same lo and
// span an exact bitmap filter over them has. It reports whether it did.
func (kc *keyCol) setSpan(v *vector.Vector, n int) bool {
	lo, hi, seen := int64(math.MaxInt64), int64(math.MinInt64), false
	for i, x := range v.I64[:n] {
		if !v.IsNull(i) {
			lo, hi, seen = min(lo, x), max(hi, x), true
		}
	}
	if !seen || uint64(hi)-uint64(lo) >= 1<<denseKeyBits {
		return false
	}
	kc.span, kc.lo, kc.n = true, lo, uint64(hi)-uint64(lo)+1
	return true
}

// idOf returns the id of k in m, handing out the next id when assign is set
// and noID otherwise.
func idOf[K comparable](m map[K]uint64, k K, n *uint64, assign bool) uint64 {
	if id, ok := m[k]; ok {
		return id
	}
	if !assign {
		return noID
	}
	*n++
	m[k] = *n
	return *n
}

// fill writes the id of every row of v to ids. Without assign (a join
// probe, or a spilling aggregation) a value with no id gets noID: it cannot
// match a build row or belong to a group in memory, and noID shifted by any
// width sets bit 63 of the packed key.
func (kc *keyCol) fill(v *vector.Vector, ids []uint64, assign bool) {
	var memo []uint64
	if v.IsCoded() {
		memo = memoOf(&kc.memos, v)
	}
	for i := range ids {
		switch {
		case v.IsNull(i):
			ids[i] = 0
		case v.IsCoded() && v.Codes[i] < uint64(len(memo)):
			c := v.Codes[i]
			if memo[c] == 0 {
				memo[c] = idOf(kc.strs, v.DictVals[c], &kc.n, assign)
			}
			ids[i] = memo[c]
		case v.Typ == sqltypes.String:
			ids[i] = idOf(kc.strs, v.StrAt(i), &kc.n, assign)
		case kc.span:
			ids[i] = noID
			if d := uint64(v.I64[i]) - uint64(kc.lo); d < kc.n {
				ids[i] = d + 1
			}
		default:
			ids[i] = idOf(kc.ints, v.I64[i], &kc.n, assign)
		}
	}
}

// memoOf returns the per-code memo of the dictionary of the coded vector v,
// grown to cover v's codes up to memoLimit.
func memoOf(memos *map[*encoding.Dict][]uint64, v *vector.Vector) []uint64 {
	if *memos == nil {
		*memos = make(map[*encoding.Dict][]uint64, 1)
	}
	m := (*memos)[v.Dict]
	if want := min(len(v.DictVals), memoLimit); len(m) < want {
		m = append(m, make([]uint64, want-len(m))...)
		(*memos)[v.Dict] = m
	}
	return m
}

// pack ORs every id, shifted, into keys. A join key with a NULL column
// matches nothing, so with nullMiss a NULL id (0) packs as noID.
func pack(keys, ids []uint64, shift uint, nullMiss bool) {
	for i, id := range ids {
		if nullMiss && id == 0 {
			id = noID
		}
		keys[i] |= id << shift
	}
}

// scratch returns s resized to n, reallocating it when it is too short.
func scratch[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// keyHasher hashes the key columns of rows, one column at a time, to one
// 64-bit value per row: FNV-1a over each value's canonical 64 bits. Equal
// keys hash alike whatever their form: a string dict-coded in any dictionary
// or materialized (its FNV-1a hash), and an integral float
// (sqltypes.IntegralFloat) like its integer. A key with a NULL hashes to 0,
// so it lands in partition 0: it matches nothing in a join, and it keeps an
// aggregation's NULL groups together. The per-code memo of each dictionary
// lives as long as the hasher, so a hasher belongs to one goroutine.
type keyHasher struct {
	memos  map[*encoding.Dict][]uint64 // code -> string hash; 0 while unresolved
	hashes []uint64
}

// hash returns the hash of the key columns keys of rows [0, n) of vecs.
// The result is scratch, valid until the next call.
func (kh *keyHasher) hash(vecs []*vector.Vector, keys []int, n int) []uint64 {
	kh.hashes = scratch(kh.hashes, n)
	hs := kh.hashes
	for i := range hs {
		hs[i] = fnvOffset
	}
	for _, k := range keys {
		v := vecs[k]
		var memo []uint64
		if v.IsCoded() {
			memo = memoOf(&kh.memos, v)
		}
		for i, acc := range hs {
			var x uint64
			switch {
			case acc == 0: // an earlier key column was NULL
				continue
			case v.IsNull(i):
				hs[i] = 0
				continue
			case v.IsCoded() && v.Codes[i] < uint64(len(memo)):
				c := v.Codes[i]
				if memo[c] == 0 {
					memo[c] = hashString(v.DictVals[c])
				}
				x = memo[c]
			case v.Typ == sqltypes.String:
				x = hashString(v.StrAt(i))
			case v.Typ == sqltypes.Float64:
				if iv, ok := sqltypes.IntegralFloat(v.F64[i]); ok {
					x = uint64(iv)
				} else {
					x = math.Float64bits(v.F64[i])
				}
			default:
				x = uint64(v.I64[i])
			}
			for s := uint(0); s < 64; s += 8 {
				acc = (acc ^ (x >> s & 0xff)) * fnvPrime
			}
			hs[i] = acc
		}
	}
	return hs
}

// partOf maps a key hash to one of n partitions. It reads the high bits:
// FNV-1a disperses its low bits poorly.
func partOf(h uint64, n int) int { return int(h>>33) % n }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashString is FNV-1a.
func hashString(s string) uint64 {
	var acc uint64 = fnvOffset
	for i := 0; i < len(s); i++ {
		acc = (acc ^ uint64(s[i])) * fnvPrime
	}
	return acc
}

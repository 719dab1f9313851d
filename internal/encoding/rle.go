package encoding

import (
	"encoding/binary"
	"fmt"
	"math"
)

// RLE is a run-length-encoded vector of uint64 codes: parallel slices of run
// values and run lengths, plus a prefix-sum index enabling O(log R) random
// access — the property the paper relies on for bookmark lookups into
// RLE-compressed segments. Every field is set when the vector is built or
// unmarshalled and never written afterwards, so concurrent readers need no
// synchronisation.
type RLE struct {
	Values []uint64
	Counts []uint32
	starts []uint32 // starts[i] = first row index of run i
	n      int
}

// RLEEncode run-length encodes vals.
func RLEEncode(vals []uint64) *RLE {
	r := &RLE{n: len(vals)}
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		r.Values = append(r.Values, vals[i])
		r.Counts = append(r.Counts, uint32(j-i))
		r.starts = append(r.starts, uint32(i))
		i = j
	}
	return r
}

// Len returns the number of logical values.
func (r *RLE) Len() int { return r.n }

// Runs returns the number of runs.
func (r *RLE) Runs() int { return len(r.Values) }

// runOf returns the run holding row i, searching runs lo and later
// (0 <= i < Len, starts[lo] <= i).
func (r *RLE) runOf(i, lo int) int {
	hi := len(r.starts) // invariant: starts[lo] <= i < starts[hi] (or hi = R)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if int(r.starts[mid]) <= i {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func (r *RLE) checkIndex(i int) {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("encoding: rle index %d out of range [0,%d)", i, r.n))
	}
}

// Get returns the i'th logical value via binary search over run starts.
func (r *RLE) Get(i int) uint64 {
	r.checkIndex(i)
	return r.Values[r.runOf(i, 0)]
}

// DecodeRange expands values start, start+1, ... into dst, stopping at the
// end of dst or of the vector, and returns the filled prefix of dst.
func (r *RLE) DecodeRange(start int, dst []uint64) []uint64 {
	if start < 0 || start > r.n {
		panic(fmt.Sprintf("encoding: rle range start %d out of range [0,%d]", start, r.n))
	}
	dst = dst[:min(len(dst), r.n-start)]
	if len(dst) == 0 {
		return dst
	}
	k := r.runOf(start, 0)
	left := int(r.starts[k]) + int(r.Counts[k]) - start // rows of run k at or after start
	for i := 0; i < len(dst); {
		run := dst[i:min(i+left, len(dst))]
		v := r.Values[k]
		for j := range run {
			run[j] = v
		}
		i += len(run)
		if k++; k < len(r.Counts) {
			left = int(r.Counts[k])
		}
	}
	return dst
}

// DecodeAll expands the runs into out, which must have length >= Len.
func (r *RLE) DecodeAll(out []uint64) []uint64 {
	return r.DecodeRange(0, out[:r.n])
}

// RLECursor reads an RLE vector by row index, remembering the run of its
// last read: a read in the same or the next run costs O(1), a read further
// ahead steps a few runs and then binary-searches the rest, and a read
// behind the cursor binary-searches from the start. Ascending access — a
// scan gathering its surviving rows — is therefore amortised O(1) per row.
// A cursor is single-goroutine state; the RLE it reads is shared.
type RLECursor struct {
	r   *RLE
	run int
}

// Cursor returns a cursor positioned at the first run.
func (r *RLE) Cursor() RLECursor { return RLECursor{r: r} }

// At returns the i'th logical value.
func (c *RLECursor) At(i int) uint64 {
	r := c.r
	r.checkIndex(i)
	k := c.run
	switch {
	case i < int(r.starts[k]):
		k = r.runOf(i, 0)
	case k+1 < len(r.starts) && i >= int(r.starts[k+1]):
		k++
		for step := 0; k+1 < len(r.starts) && i >= int(r.starts[k+1]); step++ {
			if step == 4 {
				k = r.runOf(i, k+1)
				break
			}
			k++
		}
	}
	c.run = k
	return r.Values[k]
}

// SizeBytes estimates the serialized payload size.
func (r *RLE) SizeBytes() int {
	// Conservative estimate used by the encoder's RLE-vs-bitpack choice:
	// varint value + varint count per run; assume 5 bytes/run average.
	return 10 * len(r.Values)
}

// Marshal appends a self-describing serialization of r to dst.
func (r *RLE) Marshal(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.n))
	dst = binary.AppendUvarint(dst, uint64(len(r.Values)))
	for i := range r.Values {
		dst = binary.AppendUvarint(dst, r.Values[i])
		dst = binary.AppendUvarint(dst, uint64(r.Counts[i]))
	}
	return dst
}

// UnmarshalRLE decodes an RLE from buf, returning it and the bytes read.
func UnmarshalRLE(buf []byte) (*RLE, int, error) {
	pos := 0
	total, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("encoding: bad rle length")
	}
	// Run starts are 32-bit row indexes.
	if total > math.MaxUint32 {
		return nil, 0, fmt.Errorf("encoding: rle length %d exceeds 2^32-1", total)
	}
	pos += n
	runs, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("encoding: bad rle run count")
	}
	pos += n
	// Every run takes at least two bytes (value + count uvarints), so a run
	// count beyond that bound is corrupt; checking before allocation keeps an
	// adversarial header from sizing the slices (untrusted input hardening).
	if runs > uint64(len(buf)-pos)/2 {
		return nil, 0, fmt.Errorf("encoding: rle run count %d exceeds buffer", runs)
	}
	r := &RLE{
		Values: make([]uint64, runs),
		Counts: make([]uint32, runs),
		starts: make([]uint32, runs),
		n:      int(total),
	}
	var acc uint64
	for i := 0; i < int(runs); i++ {
		v, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("encoding: rle truncated at run %d", i)
		}
		pos += n
		c, n2 := binary.Uvarint(buf[pos:])
		if n2 <= 0 || c == 0 || c > 0xFFFFFFFF {
			return nil, 0, fmt.Errorf("encoding: bad rle count at run %d", i)
		}
		pos += n2
		r.Values[i] = v
		r.Counts[i] = uint32(c)
		r.starts[i] = uint32(acc)
		acc += c
		if acc > total {
			return nil, 0, fmt.Errorf("encoding: rle counts exceed length %d at run %d", total, i)
		}
	}
	if acc != total {
		return nil, 0, fmt.Errorf("encoding: rle counts sum %d, want %d", acc, total)
	}
	return r, pos, nil
}

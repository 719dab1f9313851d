// Package encoding implements the columnstore compression primitives described
// in the paper's §2.2: value-based encoding of numerics (scale + offset),
// dictionary encoding of strings (a table-wide primary dictionary plus
// per-segment local dictionaries), row reordering to lengthen runs, and a
// per-segment choice between run-length encoding and bit-packing.
package encoding

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// BitWidth returns the number of bits needed to represent v (at least 1, so
// that an all-zero column still round-trips through the packed layout).
func BitWidth(v uint64) int {
	if v == 0 {
		return 1
	}
	return bits.Len64(v)
}

// MaxValue returns the largest value in vals, or 0 for an empty slice.
func MaxValue(vals []uint64) uint64 {
	var m uint64
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}

// Packed is a fixed-width bit-packed vector of uint64 codes. It supports
// O(1) random access (needed for bookmark fetches into compressed segments)
// and chunked decode (used by vectorized scans). Data is only ever read, so a
// Packed may alias a cached blob.
type Packed struct {
	Width int    // bits per value, 1..64
	N     int    // number of values
	Data  []byte // ceil(N*Width/8) bytes, little-endian bit order
}

// PackSlice bit-packs vals at the minimal width covering their maximum.
func PackSlice(vals []uint64) Packed {
	return PackSliceWidth(vals, BitWidth(MaxValue(vals)))
}

// PackSliceWidth bit-packs vals at the given width. Values must fit in width
// bits; wider values are truncated.
func PackSliceWidth(vals []uint64, width int) Packed {
	if width < 1 {
		width = 1
	}
	if width > 64 {
		width = 64
	}
	nbits := len(vals) * width
	data := make([]byte, (nbits+7)/8)
	mask := maskFor(width)
	for i, v := range vals {
		putBits(data, i*width, width, v&mask)
	}
	return Packed{Width: width, N: len(vals), Data: data}
}

func maskFor(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(width)) - 1
}

// putBits writes the low `width` bits of v at bit offset off. A value may
// straddle up to 9 bytes when width is close to 64 and off is unaligned.
func putBits(data []byte, off, width int, v uint64) {
	byteOff := off / 8
	bitOff := uint(off % 8)
	lo := v << bitOff
	n := (int(bitOff) + width + 7) / 8
	for i := 0; i < n && i < 8; i++ {
		data[byteOff+i] |= byte(lo >> (8 * uint(i)))
	}
	if int(bitOff)+width > 64 {
		data[byteOff+8] |= byte(v >> (64 - bitOff))
	}
}

// getBits reads width bits at bit offset off with one 64-bit little-endian
// load; only the last few values of a vector, whose word would run past the
// end of data, assemble it byte by byte. A value wider than 56 bits at an
// unaligned offset spans a ninth byte.
func getBits(data []byte, off, width int) uint64 {
	byteOff := off >> 3
	shift := uint(off & 7)
	var v uint64
	if byteOff+8 <= len(data) {
		v = binary.LittleEndian.Uint64(data[byteOff:])
	} else {
		for i := 0; byteOff+i < len(data); i++ {
			v |= uint64(data[byteOff+i]) << (8 * uint(i))
		}
	}
	v >>= shift
	if int(shift)+width > 64 && byteOff+8 < len(data) {
		v |= uint64(data[byteOff+8]) << (64 - shift)
	}
	return v & maskFor(width)
}

// Get returns the i'th packed value.
func (p Packed) Get(i int) uint64 {
	if i < 0 || i >= p.N {
		panic(fmt.Sprintf("encoding: packed index %d out of range [0,%d)", i, p.N))
	}
	return getBits(p.Data, i*p.Width, p.Width)
}

// DecodeRange decodes values start, start+1, ... into dst, stopping at the
// end of dst or of the vector, and returns the filled prefix of dst. Scans
// call it chunk by chunk with a small caller-owned buffer, so a segment is
// never expanded whole. Widths up to 56 bits take one unaligned word load
// per value while eight bytes remain.
func (p Packed) DecodeRange(start int, dst []uint64) []uint64 {
	if start < 0 || start > p.N {
		panic(fmt.Sprintf("encoding: packed range start %d out of range [0,%d]", start, p.N))
	}
	dst = dst[:min(len(dst), p.N-start)]
	w := p.Width
	data := p.Data
	off := start * w
	i := 0
	if w <= 56 {
		mask := maskFor(w)
		for ; i < len(dst); i++ {
			byteOff := off >> 3
			if byteOff+8 > len(data) {
				break
			}
			dst[i] = binary.LittleEndian.Uint64(data[byteOff:]) >> uint(off&7) & mask
			off += w
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = getBits(data, off, w)
		off += w
	}
	return dst
}

// DecodeAll decodes all values into out, which must have length >= N, and
// returns out[:N].
func (p Packed) DecodeAll(out []uint64) []uint64 {
	return p.DecodeRange(0, out[:p.N])
}

// SizeBytes reports the payload size of the packed data.
func (p Packed) SizeBytes() int { return len(p.Data) }

// Marshal appends a self-describing serialization of p to dst.
func (p Packed) Marshal(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(p.Width))
	dst = binary.AppendUvarint(dst, uint64(p.N))
	dst = binary.AppendUvarint(dst, uint64(len(p.Data)))
	return append(dst, p.Data...)
}

// UnmarshalPacked decodes a Packed from buf, returning it and the bytes read.
// The returned Data aliases buf.
func UnmarshalPacked(buf []byte) (Packed, int, error) {
	var p Packed
	pos := 0
	w, n := binary.Uvarint(buf[pos:])
	if n <= 0 || w == 0 || w > 64 {
		return p, 0, fmt.Errorf("encoding: bad packed width")
	}
	pos += n
	cnt, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return p, 0, fmt.Errorf("encoding: bad packed count")
	}
	// Bound the count before any int conversion: a buffer cannot hold more
	// values than it has bits, and an unchecked huge uvarint would overflow
	// the int width computation below (untrusted input hardening; the fuzz
	// targets exercise these paths with adversarial buffers).
	if cnt > uint64(len(buf))*8 {
		return p, 0, fmt.Errorf("encoding: packed count %d exceeds buffer", cnt)
	}
	pos += n
	dlen, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return p, 0, fmt.Errorf("encoding: bad packed data length")
	}
	pos += n
	if dlen > uint64(len(buf)-pos) {
		return p, 0, fmt.Errorf("encoding: packed data truncated")
	}
	if want := (cnt*w + 7) / 8; dlen != want {
		return p, 0, fmt.Errorf("encoding: packed data length %d, want %d", dlen, want)
	}
	p.Width = int(w)
	p.N = int(cnt)
	p.Data = buf[pos : pos+int(dlen)]
	return p, pos + int(dlen), nil
}

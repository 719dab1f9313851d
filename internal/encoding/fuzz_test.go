package encoding

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// The fuzz targets below each do two things with one input: (1) interpret the
// bytes as values and check that encode → marshal → unmarshal → decode is the
// identity, and (2) feed the raw bytes straight into the unmarshal routines,
// which must reject corrupt input with an error — never panic or misparse —
// since segment payloads come back from storage, where fault injection (and
// real disks) can hand back arbitrary bytes.

// fuzzVals derives a width (1..64) and a uint64 slice from fuzz bytes: a
// width selector byte followed by values assembled from two bytes each. Wide
// widths multiply each value by an odd constant before masking, so the high
// bits a 57..64-bit value needs are set while equal inputs stay equal (long
// runs survive for RLE).
func fuzzVals(data []byte) (int, []uint64) {
	if len(data) == 0 {
		return 1, nil
	}
	width := int(data[0]%64) + 1
	mask := maskFor(width)
	data = data[1:]
	vals := make([]uint64, 0, len(data)/2+1)
	for i := 0; i < len(data); i += 2 {
		var v uint64
		for j := i; j < i+2 && j < len(data); j++ {
			v = v<<8 | uint64(data[j])
		}
		if width > 16 {
			v *= 0x9E3779B97F4A7C15
		}
		vals = append(vals, v&mask)
	}
	return width, vals
}

// checkAccess asserts that random access and chunked range decode agree with
// want at every row: get(i) for each i, and decodeRange from starts spread
// over the vector, read to the end in chunks of varying odd sizes so chunk
// boundaries fall everywhere.
func checkAccess(t *testing.T, name string, want []uint64, get func(int) uint64, decodeRange func(int, []uint64) []uint64) {
	t.Helper()
	for i, w := range want {
		if got := get(i); got != w {
			t.Fatalf("%s: get(%d) = %d, want %d", name, i, got, w)
		}
	}
	n := len(want)
	for start := 0; start <= n; start += 1 + n/64 {
		buf := make([]uint64, 3+2*(start%7))
		pos := start
		for pos < n {
			got := decodeRange(pos, buf)
			if len(got) == 0 || len(got) > len(buf) {
				t.Fatalf("%s: decodeRange(%d) returned %d values, buffer %d, %d left", name, pos, len(got), len(buf), n-pos)
			}
			for k, v := range got {
				if v != want[pos+k] {
					t.Fatalf("%s: decodeRange from %d (chunk at %d): [%d] = %d, want %d", name, start, pos, pos+k, v, want[pos+k])
				}
			}
			pos += len(got)
		}
		if got := decodeRange(n, buf); len(got) != 0 {
			t.Fatalf("%s: decodeRange(N) returned %d values", name, len(got))
		}
	}
}

// checkCursor reads r through one RLECursor in ascending order, in ascending
// order with gaps (the scan's sparse gather), and in a random order, each
// read compared with want.
func checkCursor(t *testing.T, r *RLE, want []uint64, seed int64) {
	t.Helper()
	n := len(want)
	orders := [][]int{make([]int, 0, n), nil, rand.New(rand.NewSource(seed)).Perm(n)}
	for i := 0; i < n; i++ {
		orders[0] = append(orders[0], i)
	}
	for i := 0; i < n; i += 1 + int(seed&15) + i%5 {
		orders[1] = append(orders[1], i)
	}
	for o, order := range orders {
		c := r.Cursor()
		for _, i := range order {
			if got := c.At(i); got != want[i] {
				t.Fatalf("cursor order %d: At(%d) = %d, want %d", o, i, got, want[i])
			}
		}
	}
}

func FuzzBitpackRoundtrip(f *testing.F) {
	f.Add([]byte{7, 1, 2, 3, 4, 255, 0})
	f.Add([]byte{63, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0})
	f.Add([]byte{56, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
	f.Add([]byte{60, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0xaa})
	f.Fuzz(func(t *testing.T, data []byte) {
		width, vals := fuzzVals(data)
		p := PackSliceWidth(vals, width)
		dec := p.DecodeAll(make([]uint64, len(vals)))
		for i, want := range vals {
			if dec[i] != want {
				t.Fatalf("DecodeAll[%d] = %d, want %d", i, dec[i], want)
			}
		}
		checkAccess(t, "packed", vals, p.Get, p.DecodeRange)
		buf := p.Marshal(nil)
		q, read, err := UnmarshalPacked(buf)
		if err != nil {
			t.Fatalf("UnmarshalPacked(Marshal): %v", err)
		}
		if read != len(buf) || q.N != p.N || q.Width != p.Width || !bytes.Equal(q.Data, p.Data) {
			t.Fatalf("packed roundtrip mismatch: read %d/%d, n %d/%d, width %d/%d",
				read, len(buf), q.N, p.N, q.Width, p.Width)
		}

		// Raw bytes must never panic; successful parses must stay in bounds.
		if r, _, err := UnmarshalPacked(data); err == nil && r.N > 0 {
			all := r.DecodeAll(make([]uint64, r.N))
			checkAccess(t, "raw packed", all, r.Get, r.DecodeRange)
		}
	})
}

func FuzzRLERoundtrip(f *testing.F) {
	f.Add([]byte{2, 1, 1, 1, 1, 9, 9, 9, 9})
	f.Add([]byte{64, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 1<<40), 1<<40))
	f.Add([]byte{3, 0, 1, 0, 1, 0, 1, 0, 2, 0, 3, 0, 3, 0, 3, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, vals := fuzzVals(data)
		r := RLEEncode(vals)
		if r.Len() != len(vals) {
			t.Fatalf("RLE.Len = %d, want %d", r.Len(), len(vals))
		}
		dec := r.DecodeAll(make([]uint64, len(vals)))
		for i, want := range vals {
			if dec[i] != want {
				t.Fatalf("DecodeAll[%d] = %d, want %d", i, dec[i], want)
			}
		}
		checkAccess(t, "rle", vals, r.Get, r.DecodeRange)
		checkCursor(t, r, vals, int64(len(data)))
		buf := r.Marshal(nil)
		q, read, err := UnmarshalRLE(buf)
		if err != nil {
			t.Fatalf("UnmarshalRLE(Marshal): %v", err)
		}
		if read != len(buf) || q.Len() != r.Len() || q.Runs() != r.Runs() {
			t.Fatalf("rle roundtrip mismatch: read %d/%d, len %d/%d, runs %d/%d",
				read, len(buf), q.Len(), r.Len(), q.Runs(), r.Runs())
		}
		checkCursor(t, q, vals, int64(len(data))+1)

		// Raw bytes must never panic; a successful parse must decode its
		// declared length through every access path. Lengths are capped so
		// a tiny input declaring a billion-row run cannot exhaust memory.
		if q2, _, err := UnmarshalRLE(data); err == nil && q2.Len() > 0 && q2.Len() <= 1<<16 {
			all := q2.DecodeAll(make([]uint64, q2.Len()))
			checkAccess(t, "raw rle", all, q2.Get, q2.DecodeRange)
			checkCursor(t, q2, all, int64(len(data)))
		} else if err == nil && q2.Len() > 0 {
			_ = q2.Get(q2.Len() - 1)
			_ = q2.DecodeRange(q2.Len()-1, make([]uint64, 4))
		}
	})
}

func FuzzDictRoundtrip(f *testing.F) {
	f.Add([]byte("north\x00south\x00east\x00west"))
	f.Add([]byte{0, 0, 0})
	f.Add(binary.AppendUvarint(nil, 1<<50))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDict()
		var ids []uint32
		var strs []string
		for _, part := range bytes.Split(data, []byte{0}) {
			s := string(part)
			ids = append(ids, d.Add(s))
			strs = append(strs, s)
		}
		for i, id := range ids {
			if got := d.Value(id); got != strs[i] {
				t.Fatalf("Value(Add(%q)) = %q", strs[i], got)
			}
			if id2, ok := d.Lookup(strs[i]); !ok || id2 != id {
				t.Fatalf("Lookup(%q) = %d,%v, want %d", strs[i], id2, ok, id)
			}
		}
		buf := d.Marshal(nil)
		q, read, err := UnmarshalDict(buf)
		if err != nil {
			t.Fatalf("UnmarshalDict(Marshal): %v", err)
		}
		if read != len(buf) || q.Len() != d.Len() {
			t.Fatalf("dict roundtrip mismatch: read %d/%d, len %d/%d", read, len(buf), q.Len(), d.Len())
		}
		for i, s := range d.SnapshotValues() {
			if q.Value(uint32(i)) != s {
				t.Fatalf("dict entry %d: %q != %q", i, q.Value(uint32(i)), s)
			}
		}

		if q2, _, err := UnmarshalDict(data); err == nil && q2.Len() > 0 {
			_ = q2.Value(uint32(q2.Len() - 1))
		}
	})
}

package batchexec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"apollo/internal/encoding"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/vector"
)

// FuzzSpillRoundtrip writes random typed batches through addBatchRow and
// reads them back with readAll. Every column type is present, with NULLs;
// string cells arrive coded in the partition's bound dictionary, coded in
// another dictionary and materialized, and chunks flush at random. The
// batches read back must hold the same values, each column materialized, in
// batches of at most the asked size. The same spill bytes, truncated, must
// fail to read; garbled, they may read or fail, but never panic.
func FuzzSpillRoundtrip(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(0), uint32(0), []byte(nil))
	f.Add(int64(2), uint16(1), uint16(1), uint32(3), []byte{0xff})
	f.Add(int64(3), uint16(300), uint16(64), uint32(1000), []byte{0x80, 0x01, 0x7f})
	f.Add(int64(4), uint16(900), uint16(0), uint32(17), []byte{0, 0, 0, 0, 0x10})
	f.Add(int64(5), uint16(2000), uint16(900), uint32(1<<20), []byte("garble"))
	f.Fuzz(func(t *testing.T, seed int64, nrows, batchRows uint16, cut uint32, garble []byte) {
		sch := sqltypes.NewSchema(
			sqltypes.Column{Name: "i", Typ: sqltypes.Int64, Nullable: true},
			sqltypes.Column{Name: "d", Typ: sqltypes.Date, Nullable: true},
			sqltypes.Column{Name: "b", Typ: sqltypes.Bool, Nullable: true},
			sqltypes.Column{Name: "f", Typ: sqltypes.Float64, Nullable: true},
			sqltypes.Column{Name: "s", Typ: sqltypes.String, Nullable: true},
			sqltypes.Column{Name: "t", Typ: sqltypes.String, Nullable: true},
		)
		rng := rand.New(rand.NewSource(seed))
		store := storage.NewStore(0)
		p := newSpillPartition(store, sch)
		dicts := []*encoding.Dict{encoding.NewDict(), encoding.NewDict()}
		var want []sqltypes.Row
		for n := int(nrows % 2048); len(want) < n; {
			b := randomBatch(rng, sch, min(1+rng.Intn(64), n-len(want)), dicts)
			for i := 0; i < b.NumRows(); i++ {
				if err := p.addBatchRow(b, i); err != nil {
					t.Fatal(err)
				}
				want = append(want, b.Row(i))
			}
			if rng.Intn(4) == 0 {
				if err := p.flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := p.flush(); err != nil {
			t.Fatal(err)
		}
		var blob []byte
		for _, id := range p.blobs {
			data, err := store.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			blob = append(blob, data...)
		}

		batches, err := p.readAll(int(batchRows % 1000))
		if err != nil {
			t.Fatal(err)
		}
		var got []sqltypes.Row
		for _, b := range batches {
			if batchRows%1000 != 0 && b.NumRows() > int(batchRows%1000) {
				t.Fatalf("batch of %d rows, asked for at most %d", b.NumRows(), batchRows%1000)
			}
			for c, v := range b.Vecs {
				if v.IsCoded() {
					t.Fatalf("column %d read back coded", c)
				}
			}
			for i := 0; i < b.NumRows(); i++ {
				got = append(got, b.Row(i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("read back %d rows, wrote %d", len(got), len(want))
		}
		for r := range want {
			for c := range want[r] {
				if !sameCell(got[r][c], want[r][c]) {
					t.Fatalf("row %d column %d: read %v, wrote %v", r, c, got[r][c], want[r][c])
				}
			}
		}
		if len(p.blobs) != 0 || len(blob) == 0 {
			return
		}

		// The same bytes as one blob, cut short: reading must fail.
		reread := func(data []byte) ([]*vector.Batch, error) {
			id, err := store.Put(data, storage.None)
			if err != nil {
				t.Fatal(err)
			}
			q := newSpillPartition(store, sch)
			q.rows, q.blobs, q.dicts = p.rows, []storage.BlobID{id}, p.dicts
			return q.readAll(int(batchRows % 1000))
		}
		if _, err := reread(blob[:int(cut)%len(blob)]); err == nil {
			t.Fatalf("a spill cut to %d of %d bytes read without error", int(cut)%len(blob), len(blob))
		}
		// Garbled: any answer but a panic.
		bad := append([]byte(nil), blob...)
		for i, x := range garble {
			bad[(int(cut)+i*7919)%len(bad)] ^= x
		}
		_, _ = reread(bad)
	})
}

// randomBatch returns n random rows of sch. Each string column is coded in
// dicts[0] (the partition binds the first dictionary it sees), coded in
// dicts[1], or materialized, chosen per batch and column.
func randomBatch(rng *rand.Rand, sch *sqltypes.Schema, n int, dicts []*encoding.Dict) *vector.Batch {
	b := vector.NewBatch(sch, n)
	b.SetNumRows(n)
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), 0.5, 1 << 53, math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	for c, col := range sch.Cols {
		v := b.Vecs[c]
		var d *encoding.Dict
		if col.Typ == sqltypes.String && rng.Intn(3) > 0 {
			d = dicts[rng.Intn(2)]
		}
		var strs []string
		for i := 0; i < n; i++ {
			switch col.Typ {
			case sqltypes.Int64, sqltypes.Date:
				v.I64[i] = ints[rng.Intn(len(ints))] + rng.Int63n(1000)
			case sqltypes.Bool:
				v.I64[i] = int64(rng.Intn(2))
			case sqltypes.Float64:
				v.F64[i] = floats[rng.Intn(len(floats))] * float64(1+rng.Intn(3))
			default:
				s := fmt.Sprintf("v%d", rng.Intn(40))
				if rng.Intn(5) == 0 {
					buf := make([]byte, rng.Intn(200))
					rng.Read(buf)
					s = string(buf)
				}
				strs = append(strs, s)
				v.Str[i] = s
			}
		}
		if d != nil {
			codes := make([]uint64, n)
			for i, s := range strs {
				codes[i] = uint64(d.Add(s))
			}
			v.MakeCoded(d, d.SnapshotValues(), n)
			copy(v.Codes, codes)
		}
		for i := 0; i < n; i++ {
			if rng.Intn(8) == 0 {
				v.SetNull(i)
			}
		}
	}
	return b
}

// sameCell reports whether two cells hold the same value, floats bit for bit.
func sameCell(a, b sqltypes.Value) bool {
	if a.Null || b.Null {
		return a.Null == b.Null && a.Typ == b.Typ
	}
	if a.Typ == sqltypes.Float64 {
		return a.Typ == b.Typ && math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a == b
}

package colstore

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/vector"
)

func testSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "price", Typ: sqltypes.Float64, Nullable: true},
		sqltypes.Column{Name: "region", Typ: sqltypes.String},
		sqltypes.Column{Name: "d", Typ: sqltypes.Date},
	)
}

func makeRows(n int, seed int64) []sqltypes.Row {
	rng := rand.New(rand.NewSource(seed))
	regions := []string{"north", "south", "east", "west", "central"}
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		price := sqltypes.NewFloat(float64(rng.Intn(10000)) / 100)
		if rng.Intn(20) == 0 {
			price = sqltypes.NewNull(sqltypes.Float64)
		}
		rows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			price,
			sqltypes.NewString(regions[rng.Intn(len(regions))]),
			sqltypes.NewDate(int64(8000 + rng.Intn(365))),
		}
	}
	return rows
}

func buildIndex(t *testing.T, rows []sqltypes.Row, opts Options) (*Index, *storage.Store) {
	t.Helper()
	store := storage.NewStore(storage.DefaultBufferPoolBytes)
	idx := NewIndex(store, testSchema(), opts)
	bufs := BuffersFromRows(testSchema(), rows)
	if _, err := idx.CompressRowGroup(bufs); err != nil {
		t.Fatal(err)
	}
	return idx, store
}

// readAll materializes the full index back into rows via column readers,
// preserving physical order.
func readAll(t *testing.T, idx *Index) []sqltypes.Row {
	t.Helper()
	var out []sqltypes.Row
	for _, g := range idx.Groups() {
		readers := make([]*ColumnReader, idx.Schema.Len())
		for c := range readers {
			r, err := idx.OpenColumn(g, c)
			if err != nil {
				t.Fatal(err)
			}
			readers[c] = r
		}
		for i := 0; i < g.Rows; i++ {
			row := make(sqltypes.Row, len(readers))
			for c, r := range readers {
				row[c] = r.Value(i)
			}
			out = append(out, row)
		}
	}
	return out
}

func rowSetEqual(a, b []sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[string]int{}
	for _, r := range a {
		count[r.String()]++
	}
	for _, r := range b {
		count[r.String()]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestRoundTripNoReorder(t *testing.T) {
	rows := makeRows(5000, 1)
	opts := DefaultOptions()
	opts.Reorder = false
	idx, _ := buildIndex(t, rows, opts)
	got := readAll(t, idx)
	// Without reordering, physical order is insertion order.
	for i := range rows {
		if rows[i].String() != got[i].String() {
			t.Fatalf("row %d: got %v, want %v", i, got[i], rows[i])
		}
	}
}

func TestRoundTripWithReorder(t *testing.T) {
	rows := makeRows(5000, 2)
	idx, _ := buildIndex(t, rows, DefaultOptions())
	got := readAll(t, idx)
	if !rowSetEqual(rows, got) {
		t.Fatal("reordered round trip lost or mutated rows")
	}
}

func TestRoundTripArchival(t *testing.T) {
	rows := makeRows(3000, 3)
	opts := DefaultOptions()
	opts.Tier = storage.Archival
	idx, _ := buildIndex(t, rows, opts)
	got := readAll(t, idx)
	if !rowSetEqual(rows, got) {
		t.Fatal("archival round trip mismatch")
	}
}

func TestArchivalSmallerThanNormal(t *testing.T) {
	rows := makeRows(20000, 4)
	normal, _ := buildIndex(t, rows, DefaultOptions())
	archOpts := DefaultOptions()
	archOpts.Tier = storage.Archival
	arch, _ := buildIndex(t, rows, archOpts)
	if arch.DiskBytes() >= normal.DiskBytes() {
		t.Fatalf("archival %d >= normal %d", arch.DiskBytes(), normal.DiskBytes())
	}
}

func TestCompressionBeatsRaw(t *testing.T) {
	rows := makeRows(20000, 5)
	idx, _ := buildIndex(t, rows, DefaultOptions())
	if idx.DiskBytes() >= idx.RawBytes()/2 {
		t.Fatalf("weak compression: disk=%d raw=%d", idx.DiskBytes(), idx.RawBytes())
	}
}

func TestReorderImprovesCompression(t *testing.T) {
	rows := makeRows(20000, 6)
	opts := DefaultOptions()
	opts.Reorder = false
	plain, _ := buildIndex(t, rows, opts)
	reordered, _ := buildIndex(t, rows, DefaultOptions())
	if reordered.DiskBytes() >= plain.DiskBytes() {
		t.Fatalf("reorder did not help: %d >= %d", reordered.DiskBytes(), plain.DiskBytes())
	}
}

func TestSegmentMetadata(t *testing.T) {
	rows := makeRows(1000, 7)
	opts := DefaultOptions()
	opts.Reorder = false
	idx, _ := buildIndex(t, rows, opts)
	g := idx.Groups()[0]
	if g.Rows != 1000 {
		t.Fatalf("group rows = %d", g.Rows)
	}
	// id column: min 0, max 999, no nulls.
	seg := g.Segs[0]
	if seg.Min.I != 0 || seg.Max.I != 999 || seg.NullCount != 0 {
		t.Fatalf("id segment meta: min=%v max=%v nulls=%d", seg.Min, seg.Max, seg.NullCount)
	}
	// price column has some nulls.
	if g.Segs[1].NullCount == 0 {
		t.Fatal("price segment should have nulls")
	}
	// region column: dictionary encoded.
	if g.Segs[2].Enc != EncDict {
		t.Fatal("region should be dictionary encoded")
	}
}

func TestCanMatchRange(t *testing.T) {
	m := &SegmentMeta{Min: sqltypes.NewInt(100), Max: sqltypes.NewInt(200)}
	null := sqltypes.NewNull(sqltypes.Int64)
	cases := []struct {
		lo, hi sqltypes.Value
		want   bool
	}{
		{sqltypes.NewInt(150), sqltypes.NewInt(160), true},
		{sqltypes.NewInt(201), null, false},
		{null, sqltypes.NewInt(99), false},
		{sqltypes.NewInt(200), null, true},
		{null, sqltypes.NewInt(100), true},
		{null, null, true},
	}
	for _, c := range cases {
		if got := m.CanMatchRange(c.lo, c.hi); got != c.want {
			t.Errorf("CanMatchRange(%v, %v) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	allNull := &SegmentMeta{Min: null, Max: null}
	if allNull.CanMatchRange(null, null) {
		t.Error("all-NULL segment must never match a range predicate")
	}
}

func TestCodeRangeMonotonic(t *testing.T) {
	rows := makeRows(2000, 8)
	opts := DefaultOptions()
	opts.Reorder = false
	idx, _ := buildIndex(t, rows, opts)
	g := idx.Groups()[0]
	r, err := idx.OpenColumn(g, 0) // id column
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := sqltypes.NewInt(500), sqltypes.NewInt(600)
	cLo, cHi, ok := r.CodeRange(lo, hi)
	if !ok {
		t.Fatal("expected monotonic code range")
	}
	for i := 0; i < r.Len(); i++ {
		code := r.CodeAt(i)
		inCode := code >= cLo && code <= cHi
		v := r.Value(i)
		inRaw := v.I >= 500 && v.I <= 600
		if inCode != inRaw {
			t.Fatalf("row %d: code-range %v, raw-range %v (v=%v)", i, inCode, inRaw, v)
		}
	}
}

func TestCodeSetMatching(t *testing.T) {
	rows := makeRows(2000, 9)
	opts := DefaultOptions()
	opts.Reorder = false
	idx, _ := buildIndex(t, rows, opts)
	g := idx.Groups()[0]
	r, err := idx.OpenColumn(g, 2) // region
	if err != nil {
		t.Fatal(err)
	}
	set := r.CodeSetMatching(func(v sqltypes.Value) bool { return strings.HasPrefix(v.S, "s") })
	for i := 0; i < r.Len(); i++ {
		want := strings.HasPrefix(r.Value(i).S, "s")
		if got := set.Get(int(r.CodeAt(i))); got != want {
			t.Fatalf("row %d: codeset %v, want %v", i, got, want)
		}
	}
}

func TestLookupCode(t *testing.T) {
	rows := makeRows(500, 10)
	opts := DefaultOptions()
	opts.Reorder = false
	idx, _ := buildIndex(t, rows, opts)
	r, err := idx.OpenColumn(idx.Groups()[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	code, ok := r.LookupCode("north")
	if !ok {
		t.Fatal("north missing from dictionary")
	}
	if got := r.DecodeCode(code); got.S != "north" {
		t.Fatalf("decode = %v", got)
	}
	if _, ok := r.LookupCode("atlantis"); ok {
		t.Fatal("phantom dictionary entry")
	}
}

func TestLocalDictionaryOverflow(t *testing.T) {
	// Cap the primary dictionary tiny so later values overflow to local.
	store := storage.NewStore(storage.DefaultBufferPoolBytes)
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "s", Typ: sqltypes.String})
	opts := DefaultOptions()
	opts.PrimaryDictCap = 3
	opts.Reorder = false
	idx := NewIndex(store, schema, opts)
	var rows []sqltypes.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewString(fmt.Sprintf("val-%d", i%10))})
	}
	g, err := idx.CompressRowGroup(BuffersFromRows(schema, rows))
	if err != nil {
		t.Fatal(err)
	}
	if g.Segs[0].LocalDict == 0 {
		t.Fatal("expected a local dictionary")
	}
	r, err := idx.OpenColumn(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		want := fmt.Sprintf("val-%d", i%10)
		if got := r.Value(i).S; got != want {
			t.Fatalf("row %d: got %q, want %q", i, got, want)
		}
	}
	// Overflow values must still be findable via LookupCode.
	if _, ok := r.LookupCode("val-7"); !ok {
		t.Fatal("local value not found by LookupCode")
	}
}

func TestMaterializeInto(t *testing.T) {
	rows := makeRows(1000, 11)
	opts := DefaultOptions()
	opts.Reorder = false
	idx, _ := buildIndex(t, rows, opts)
	g := idx.Groups()[0]
	for c := 0; c < idx.Schema.Len(); c++ {
		r, err := idx.OpenColumn(g, c)
		if err != nil {
			t.Fatal(err)
		}
		v := vector.NewVector(idx.Schema.Cols[c].Typ, 0)
		r.MaterializeInto(v, 100, 50)
		for i := 0; i < 50; i++ {
			want := rows[100+i][c]
			got := v.Value(i)
			if want.Null != got.Null || (!want.Null && sqltypes.Compare(want, got) != 0) {
				t.Fatalf("col %d row %d: got %v, want %v", c, i, got, want)
			}
		}
	}
}

func TestRemoveGroupFreesStorage(t *testing.T) {
	rows := makeRows(2000, 12)
	idx, store := buildIndex(t, rows, DefaultOptions())
	before := store.SizeOnDisk()
	if before == 0 {
		t.Fatal("no storage used")
	}
	id := idx.Groups()[0].ID
	if !idx.RemoveGroup(id) {
		t.Fatal("remove failed")
	}
	if got := store.SizeOnDisk(); got != 0 {
		t.Fatalf("storage not freed: %d of %d", got, before)
	}
	if idx.Rows() != 0 || len(idx.Groups()) != 0 {
		t.Fatal("directory not empty")
	}
	if idx.RemoveGroup(id) {
		t.Fatal("double remove succeeded")
	}
}

func TestMultipleRowGroups(t *testing.T) {
	store := storage.NewStore(storage.DefaultBufferPoolBytes)
	idx := NewIndex(store, testSchema(), DefaultOptions())
	for g := 0; g < 3; g++ {
		rows := makeRows(1000, int64(100+g))
		if _, err := idx.CompressRowGroup(BuffersFromRows(testSchema(), rows)); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Rows() != 3000 {
		t.Fatalf("Rows = %d", idx.Rows())
	}
	ids := map[int]bool{}
	for _, g := range idx.Groups() {
		if ids[g.ID] {
			t.Fatal("duplicate group id")
		}
		ids[g.ID] = true
	}
}

func TestCompressRowGroupErrors(t *testing.T) {
	store := storage.NewStore(storage.DefaultBufferPoolBytes)
	idx := NewIndex(store, testSchema(), DefaultOptions())
	if _, err := idx.CompressRowGroup(nil); err == nil {
		t.Fatal("wrong buffer count accepted")
	}
	bufs := BuffersFromRows(testSchema(), nil)
	if _, err := idx.CompressRowGroup(bufs); err == nil {
		t.Fatal("empty row group accepted")
	}
	bufs = BuffersFromRows(testSchema(), makeRows(10, 1))
	bufs[1].Append(sqltypes.NewFloat(1)) // ragged
	if _, err := idx.CompressRowGroup(bufs); err == nil {
		t.Fatal("ragged buffers accepted")
	}
}

func TestSortedColumnUsesRLE(t *testing.T) {
	// A sorted, low-cardinality column should compress with RLE.
	store := storage.NewStore(storage.DefaultBufferPoolBytes)
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "k", Typ: sqltypes.Int64})
	opts := DefaultOptions()
	opts.Reorder = false
	idx := NewIndex(store, schema, opts)
	var rows []sqltypes.Row
	for i := 0; i < 10000; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(i / 1000))})
	}
	g, err := idx.CompressRowGroup(BuffersFromRows(schema, rows))
	if err != nil {
		t.Fatal(err)
	}
	if g.Segs[0].Comp != CompRLE {
		t.Fatalf("expected RLE, got %v", g.Segs[0].Comp)
	}
	if g.DiskBytes() > 200 {
		t.Fatalf("RLE segment suspiciously large: %d bytes", g.DiskBytes())
	}
}

// Every way of reading a segment — CodeAt in ascending, sparse and random
// order, chunked DecodeRange, CodesAt over contiguous and sparse ids, the
// gathers and Value — agrees with the original rows, on an RLE and a
// bit-packed segment that both hold NULLs and on a string segment with a
// local dictionary.
func TestReaderAccessPaths(t *testing.T) {
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "k", Typ: sqltypes.Int64, Nullable: true},
		sqltypes.Column{Name: "v", Typ: sqltypes.Int64, Nullable: true},
		sqltypes.Column{Name: "s", Typ: sqltypes.String, Nullable: true},
	)
	rng := rand.New(rand.NewSource(21))
	var rows []sqltypes.Row
	for i := 0; i < 3000; i++ {
		k := sqltypes.NewInt(int64(i / 100))
		if (i/100)%4 == 1 {
			k = sqltypes.NewNull(sqltypes.Int64)
		}
		v := sqltypes.NewInt(rng.Int63n(1 << 40))
		if i%9 == 0 {
			v = sqltypes.NewNull(sqltypes.Int64)
		}
		s := sqltypes.NewString(fmt.Sprintf("s%d", rng.Intn(50)))
		if i%7 == 0 {
			s = sqltypes.NewNull(sqltypes.String)
		}
		rows = append(rows, sqltypes.Row{k, v, s})
	}
	opts := DefaultOptions()
	opts.Reorder = false
	opts.PrimaryDictCap = 10
	idx := NewIndex(storage.NewStore(storage.DefaultBufferPoolBytes), schema, opts)
	g, err := idx.CompressRowGroup(BuffersFromRows(schema, rows))
	if err != nil {
		t.Fatal(err)
	}
	if g.Segs[0].Comp != CompRLE || g.Segs[1].Comp != CompBitPack || g.Segs[2].LocalDict == 0 {
		t.Fatalf("segment shapes: k %v, v %v, s local dictionary %d", g.Segs[0].Comp, g.Segs[1].Comp, g.Segs[2].LocalDict)
	}
	var sparse []int
	for i := 0; i < len(rows); i += 1 + rng.Intn(40) {
		sparse = append(sparse, i)
	}
	contiguous := []int{1200, 1201, 1202, 1203, 1204, 1205}

	for c := range schema.Cols {
		r, err := idx.OpenColumn(g, c)
		if err != nil {
			t.Fatal(err)
		}
		// Codes through CodeAt in ascending order are the reference for
		// the other code paths; values check them against the input rows.
		codes := make([]uint64, r.Len())
		for i := range codes {
			codes[i] = r.CodeAt(i)
			if got, want := r.Value(i), rows[i][c]; got.Null != want.Null || (!want.Null && sqltypes.Compare(got, want) != 0) {
				t.Fatalf("col %d row %d: Value %v, want %v", c, i, got, want)
			}
		}
		for _, i := range rng.Perm(len(codes)) {
			if got := r.CodeAt(i); got != codes[i] {
				t.Fatalf("col %d: random-order CodeAt(%d) = %d, want %d", c, i, got, codes[i])
			}
		}
		buf := make([]uint64, 37)
		for start := 0; start < len(codes); {
			got := r.DecodeRange(start, buf)
			for k, code := range got {
				if code != codes[start+k] {
					t.Fatalf("col %d: DecodeRange from %d: row %d = %d, want %d", c, start, start+k, code, codes[start+k])
				}
			}
			start += len(got)
		}
		for _, ids := range [][]int{sparse, contiguous} {
			got := r.CodesAt(ids, make([]uint64, len(ids)))
			v := vector.NewVector(schema.Cols[c].Typ, 0)
			if r.CanEmitCodes() {
				r.GatherCodesInto(v, ids)
			} else {
				r.GatherInto(v, ids)
			}
			for k, i := range ids {
				if got[k] != codes[i] {
					t.Fatalf("col %d: CodesAt row %d = %d, want %d", c, i, got[k], codes[i])
				}
				if gv, want := v.Value(k), rows[i][c]; gv.Null != want.Null || (!want.Null && sqltypes.Compare(gv, want) != 0) {
					t.Fatalf("col %d: gathered row %d = %v, want %v", c, i, gv, want)
				}
			}
		}
	}
}

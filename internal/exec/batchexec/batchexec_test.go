package batchexec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"apollo/internal/exec"
	"apollo/internal/expr"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/table"
)

func testSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "grp", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "price", Typ: sqltypes.Float64, Nullable: true},
		sqltypes.Column{Name: "region", Typ: sqltypes.String},
		sqltypes.Column{Name: "d", Typ: sqltypes.Date},
	)
}

var regions = []string{"north", "south", "east", "west"}

func makeRows(n int, seed int64) []sqltypes.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		price := sqltypes.NewFloat(float64(rng.Intn(10000)) / 100)
		if rng.Intn(25) == 0 {
			price = sqltypes.NewNull(sqltypes.Float64)
		}
		rows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(rng.Intn(50))),
			price,
			sqltypes.NewString(regions[rng.Intn(len(regions))]),
			sqltypes.NewDate(int64(9000 + rng.Intn(1000))),
		}
	}
	return rows
}

// loadTable builds a CCI table with small row groups plus some delta rows and
// deletes, so scans cover every storage path.
func loadTable(t *testing.T, rows []sqltypes.Row) *table.Table {
	t.Helper()
	store := storage.NewStore(storage.DefaultBufferPoolBytes)
	opts := table.Options{RowGroupSize: 500, BulkLoadThreshold: 100, Columnstore: table.DefaultOptions().Columnstore}
	tb := table.New(store, "t", testSchema(), opts)
	split := len(rows) * 9 / 10
	if _, err := tb.BulkLoad(context.Background(), rows[:split]); err != nil {
		t.Fatal(err)
	}
	if err := tb.InsertMany(rows[split:]); err != nil {
		t.Fatal(err)
	}
	// Delete ~5% of rows.
	if _, err := tb.DeleteWhere(func(r sqltypes.Row) bool { return r[0].I%20 == 13 }); err != nil {
		t.Fatal(err)
	}
	return tb
}

// reference computes the expected multiset of rows surviving a filter.
func reference(rows []sqltypes.Row, pred func(sqltypes.Row) bool, proj []int) map[string]int {
	out := map[string]int{}
	for _, r := range rows {
		if r[0].I%20 == 13 { // deleted
			continue
		}
		if pred != nil && !pred(r) {
			continue
		}
		key := ""
		for _, c := range proj {
			key += r[c].String() + "|"
		}
		out[key]++
	}
	return out
}

// rowKey canonicalizes one row for exact, order-insensitive comparison.
func rowKey(r sqltypes.Row) string {
	key := ""
	for _, v := range r {
		key += v.String() + "|"
	}
	return key
}

// rowMultiset canonicalizes rows into an order-insensitive multiset. Parallel
// pipelines interleave batches nondeterministically (worker scheduling decides
// gather order), so parity between plans is always asserted on multisets,
// never on slice order.
func rowMultiset(rows []sqltypes.Row) map[string]int {
	out := map[string]int{}
	for _, r := range rows {
		out[rowKey(r)]++
	}
	return out
}

// multisetDiff describes how two row multisets differ ("" when equal).
func multisetDiff(got, want map[string]int) string {
	var diffs []string
	for k, v := range want {
		if got[k] != v {
			diffs = append(diffs, fmt.Sprintf("row %q: got %d, want %d", k, got[k], v))
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("row %q: got %d, want 0", k, v))
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	if len(diffs) > 8 {
		diffs = append(diffs[:8], fmt.Sprintf("... and %d more", len(diffs)-8))
	}
	return strings.Join(diffs, "\n")
}

// floatTolerance is the relative difference under which two float results
// count as equal. Parallel aggregation merges partial sums in a different
// order than the serial pipeline; compensated summation keeps them within an
// ulp or two (~1e-16), far inside it, while any real defect is orders of
// magnitude larger.
const floatTolerance = 1e-12

// sortedRows returns rows ordered column by column.
func sortedRows(rows []sqltypes.Row) []sqltypes.Row {
	out := append([]sqltypes.Row(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for c := 0; c < len(a) && c < len(b); c++ {
			if d := sqltypes.Compare(a[c], b[c]); d != 0 {
				return d < 0
			}
		}
		return len(a) < len(b)
	})
	return out
}

// rowsClose reports whether two rows are equal, floats within floatTolerance.
func rowsClose(a, b sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		x, y := a[c], b[c]
		if x.Typ == sqltypes.Float64 && y.Typ == sqltypes.Float64 && !x.Null && !y.Null {
			if math.Abs(x.F-y.F) > floatTolerance*math.Max(math.Abs(x.F), math.Abs(y.F)) {
				return false
			}
			continue
		}
		if x.Null != y.Null || x.String() != y.String() {
			return false
		}
	}
	return true
}

// assertSameRows asserts two row sets are equal irrespective of order: both
// are sorted and matched pairwise, floats within floatTolerance.
func assertSameRows(t *testing.T, label string, got, want []sqltypes.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d rows, want %d", label, len(got), len(want))
		return
	}
	g, w := sortedRows(got), sortedRows(want)
	bad := 0
	for i := range g {
		if !rowsClose(g[i], w[i]) {
			if bad < 8 {
				t.Errorf("%s: sorted row %d: got %v, want %v", label, i, g[i], w[i])
			}
			bad++
		}
	}
	if bad > 8 {
		t.Errorf("%s: ... and %d more mismatched rows", label, bad-8)
	}
}

func gotRows(t *testing.T, op Operator) map[string]int {
	t.Helper()
	rows, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	return rowMultiset(rows)
}

func mapsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestScanFullTable(t *testing.T) {
	rows := makeRows(3000, 1)
	tb := loadTable(t, rows)
	scan := NewScan(tb.Snapshot(), []int{0, 1, 2, 3, 4})
	want := reference(rows, nil, []int{0, 1, 2, 3, 4})
	if got := gotRows(t, scan); !mapsEqual(got, want) {
		t.Fatalf("full scan mismatch: got %d keys, want %d", len(got), len(want))
	}
}

func TestScanWithPushdownRange(t *testing.T) {
	rows := makeRows(3000, 2)
	tb := loadTable(t, rows)
	scan := NewScan(tb.Snapshot(), []int{0, 4})
	scan.Pushdowns = []Pushdown{{Col: 4, Lo: sqltypes.NewDate(9100), Hi: sqltypes.NewDate(9200)}}
	want := reference(rows, func(r sqltypes.Row) bool {
		return r[4].I >= 9100 && r[4].I <= 9200
	}, []int{0, 4})
	if got := gotRows(t, scan); !mapsEqual(got, want) {
		t.Fatal("range pushdown mismatch")
	}
	if scan.Stats.RowsAfterRange >= scan.Stats.RowsConsidered {
		t.Fatal("pushdown did not narrow rows")
	}
}

func TestScanStringPushdown(t *testing.T) {
	rows := makeRows(3000, 3)
	tb := loadTable(t, rows)
	scan := NewScan(tb.Snapshot(), []int{0, 3})
	eq := sqltypes.NewString("north")
	scan.Pushdowns = []Pushdown{{Col: 3, Lo: eq, Hi: eq}}
	want := reference(rows, func(r sqltypes.Row) bool { return r[3].S == "north" }, []int{0, 3})
	if got := gotRows(t, scan); !mapsEqual(got, want) {
		t.Fatal("string pushdown mismatch")
	}
}

func TestScanSegmentElimination(t *testing.T) {
	// Load sorted data so row-group min/max ranges partition the key space.
	var rows []sqltypes.Row
	for i := 0; i < 3000; i++ {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(i / 100)),
			sqltypes.NewFloat(1),
			sqltypes.NewString("x"),
			sqltypes.NewDate(int64(9000 + i)),
		})
	}
	store := storage.NewStore(storage.DefaultBufferPoolBytes)
	opts := table.Options{RowGroupSize: 500, BulkLoadThreshold: 100, Columnstore: table.DefaultOptions().Columnstore}
	tb := table.New(store, "t", testSchema(), opts)
	if _, err := tb.BulkLoad(context.Background(), rows); err != nil {
		t.Fatal(err)
	}
	scan := NewScan(tb.Snapshot(), []int{0})
	scan.Pushdowns = []Pushdown{{Col: 4, Lo: sqltypes.NewDate(9000), Hi: sqltypes.NewDate(9099)}}
	n, err := Count(scan)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("count = %d, want 100", n)
	}
	if scan.Stats.GroupsEliminated != 5 {
		t.Fatalf("eliminated %d of 6 groups, want 5", scan.Stats.GroupsEliminated)
	}
}

func TestScanResidualAndParallel(t *testing.T) {
	rows := makeRows(5000, 4)
	tb := loadTable(t, rows)
	pred := func(r sqltypes.Row) bool {
		return !r[2].Null && r[2].F < 30 && strings.HasPrefix(r[3].S, "n")
	}
	want := reference(rows, pred, []int{0, 2, 3})
	for _, par := range []int{1, 4} {
		scan := NewScan(tb.Snapshot(), []int{0, 2, 3})
		scan.Residual = expr.NewAnd(
			expr.NewCmp(expr.LT, expr.NewColRef(1, "price", sqltypes.Float64), expr.NewConst(sqltypes.NewFloat(30))),
			expr.NewLike(expr.NewColRef(2, "region", sqltypes.String), "n%", false),
		)
		scan.Parallel = par
		if got := gotRows(t, scan); !mapsEqual(got, want) {
			t.Fatalf("parallel=%d: residual scan mismatch", par)
		}
	}
}

func TestFilterProjectLimit(t *testing.T) {
	rows := makeRows(2000, 5)
	tb := loadTable(t, rows)
	scan := NewScan(tb.Snapshot(), []int{0, 1})
	filter := &Filter{In: scan, Pred: expr.NewCmp(expr.LT, expr.NewColRef(0, "id", sqltypes.Int64), expr.NewConst(sqltypes.NewInt(100)))}
	proj := NewProject(filter, []expr.Expr{
		expr.NewColRef(0, "id", sqltypes.Int64),
		expr.NewArith(expr.Mul, expr.NewColRef(1, "grp", sqltypes.Int64), expr.NewConst(sqltypes.NewInt(2))),
	}, []string{"id", "grp2"})
	lim := &Limit{In: proj, N: 10}
	got, err := Drain(lim)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("limit returned %d rows", len(got))
	}
	for _, r := range got {
		if r[0].I >= 100 || r[1].I%2 != 0 {
			t.Fatalf("bad row %v", r)
		}
	}
}

func TestLimitOffset(t *testing.T) {
	vals := &Values{Rows: makeRows(50, 6), Sch: testSchema()}
	lim := &Limit{In: vals, Offset: 45, N: 100}
	got, err := Drain(lim)
	if err != nil || len(got) != 5 {
		t.Fatalf("offset+limit: %d rows, err %v", len(got), err)
	}
}

func joinInputs(t *testing.T, nFact, nDim int) (fact, dim []sqltypes.Row, factSch, dimSch *sqltypes.Schema) {
	rng := rand.New(rand.NewSource(7))
	factSch = sqltypes.NewSchema(
		sqltypes.Column{Name: "fk", Typ: sqltypes.Int64, Nullable: true},
		sqltypes.Column{Name: "val", Typ: sqltypes.Int64},
	)
	dimSch = sqltypes.NewSchema(
		sqltypes.Column{Name: "pk", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "name", Typ: sqltypes.String},
	)
	for i := 0; i < nFact; i++ {
		fk := sqltypes.NewInt(int64(rng.Intn(nDim * 2))) // half dangle
		if rng.Intn(20) == 0 {
			fk = sqltypes.NewNull(sqltypes.Int64)
		}
		fact = append(fact, sqltypes.Row{fk, sqltypes.NewInt(int64(i))})
	}
	for i := 0; i < nDim; i++ {
		dim = append(dim, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("d%d", i))})
	}
	return
}

// refJoin computes the expected join output multiset.
func refJoin(fact, dim []sqltypes.Row, jt exec.JoinType) map[string]int {
	out := map[string]int{}
	add := func(parts ...string) { out[strings.Join(parts, "|")+"|"]++ }
	dimMatched := make([]bool, len(dim))
	for _, f := range fact {
		matched := false
		for di, d := range dim {
			if !f[0].Null && f[0].I == d[0].I {
				matched = true
				dimMatched[di] = true
				if jt == exec.Inner || jt == exec.LeftOuter || jt == exec.RightOuter || jt == exec.FullOuter {
					add(f[0].String(), f[1].String(), d[0].String(), d[1].String())
				}
			}
		}
		switch jt {
		case exec.LeftSemi:
			if matched {
				add(f[0].String(), f[1].String())
			}
		case exec.LeftAnti:
			if !matched {
				add(f[0].String(), f[1].String())
			}
		case exec.LeftOuter, exec.FullOuter:
			if !matched {
				add(f[0].String(), f[1].String(), "NULL", "NULL")
			}
		}
	}
	if jt == exec.RightOuter || jt == exec.FullOuter {
		for di, d := range dim {
			if !dimMatched[di] {
				add("NULL", "NULL", d[0].String(), d[1].String())
			}
		}
	}
	return out
}

func TestHashJoinAllTypes(t *testing.T) {
	fact, dim, factSch, dimSch := joinInputs(t, 2000, 100)
	for _, jt := range []exec.JoinType{exec.Inner, exec.LeftOuter, exec.RightOuter, exec.FullOuter, exec.LeftSemi, exec.LeftAnti} {
		t.Run(jt.String(), func(t *testing.T) {
			j, err := NewHashJoin(
				&Values{Rows: fact, Sch: factSch},
				&Values{Rows: dim, Sch: dimSch},
				[]int{0}, []int{0}, jt, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := refJoin(fact, dim, jt)
			if got := gotRows(t, j); !mapsEqual(got, want) {
				t.Fatalf("%v join mismatch: got %d distinct, want %d", jt, len(got), len(want))
			}
		})
	}
}

func TestHashJoinResidual(t *testing.T) {
	fact, dim, factSch, dimSch := joinInputs(t, 1000, 50)
	// Residual: val % 2 = 0 (over probe++build layout, val is col 1).
	res := expr.NewCmp(expr.EQ,
		expr.NewArith(expr.Mod, expr.NewColRef(1, "val", sqltypes.Int64), expr.NewConst(sqltypes.NewInt(2))),
		expr.NewConst(sqltypes.NewInt(0)))
	j, err := NewHashJoin(&Values{Rows: fact, Sch: factSch}, &Values{Rows: dim, Sch: dimSch},
		[]int{0}, []int{0}, exec.Inner, res)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r[1].I%2 != 0 {
			t.Fatalf("residual leaked row %v", r)
		}
	}
	// Cross-check count against reference with residual applied.
	want := 0
	for _, f := range fact {
		if f[0].Null || f[1].I%2 != 0 {
			continue
		}
		for _, d := range dim {
			if f[0].I == d[0].I {
				want++
			}
		}
	}
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
}

func TestHashJoinMultiKeyStringKey(t *testing.T) {
	aSch := sqltypes.NewSchema(
		sqltypes.Column{Name: "k1", Typ: sqltypes.String},
		sqltypes.Column{Name: "k2", Typ: sqltypes.Int64},
	)
	a := []sqltypes.Row{
		{sqltypes.NewString("x"), sqltypes.NewInt(1)},
		{sqltypes.NewString("x"), sqltypes.NewInt(2)},
		{sqltypes.NewString("y"), sqltypes.NewInt(1)},
	}
	b := []sqltypes.Row{
		{sqltypes.NewString("x"), sqltypes.NewInt(1)},
		{sqltypes.NewString("y"), sqltypes.NewInt(2)},
	}
	j, err := NewHashJoin(&Values{Rows: a, Sch: aSch}, &Values{Rows: b, Sch: aSch},
		[]int{0, 1}, []int{0, 1}, exec.Inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].S != "x" || rows[0][1].I != 1 {
		t.Fatalf("multi-key join = %v", rows)
	}
}

func TestHashJoinSpill(t *testing.T) {
	fact, dim, factSch, dimSch := joinInputs(t, 5000, 500)
	want := refJoin(fact, dim, exec.Inner)
	for _, jt := range []exec.JoinType{exec.Inner, exec.FullOuter, exec.LeftAnti} {
		tracker := NewTracker(4 << 10) // tiny grant forces spilling
		spillStore := storage.NewStore(0)
		j, err := NewHashJoin(&Values{Rows: fact, Sch: factSch}, &Values{Rows: dim, Sch: dimSch},
			[]int{0}, []int{0}, jt, nil)
		if err != nil {
			t.Fatal(err)
		}
		j.Tracker = tracker
		j.SpillStore = spillStore
		got := gotRows(t, j)
		if tracker.Spills() == 0 {
			t.Fatalf("%v: expected spilling", jt)
		}
		if jt == exec.Inner && !mapsEqual(got, want) {
			t.Fatal("spilled inner join mismatch")
		}
		ref := refJoin(fact, dim, jt)
		if !mapsEqual(got, ref) {
			t.Fatalf("%v: spilled join mismatch", jt)
		}
		if spillStore.Stats().Writes == 0 {
			t.Fatal("no spill I/O recorded")
		}
	}
}

func TestBloomPushdownThroughJoin(t *testing.T) {
	rows := makeRows(4000, 8)
	tb := loadTable(t, rows)
	// Dimension: only region "north" (via values).
	dimSch := sqltypes.NewSchema(sqltypes.Column{Name: "rname", Typ: sqltypes.String})
	dim := []sqltypes.Row{{sqltypes.NewString("north")}}

	target := &BloomTarget{}
	scan := NewScan(tb.Snapshot(), []int{0, 3})
	scan.Blooms = []BloomPred{{Col: 3, Target: target}}

	j, err := NewHashJoin(scan, &Values{Rows: dim, Sch: dimSch}, []int{1}, []int{0}, exec.Inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.BloomOut = target
	exact, bloom := mBitmapFiltersExact.Value(), mBitmapFiltersBloom.Value()
	rowsOut, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	// A string key publishes a Bloom filter, counted once.
	if d := mBitmapFiltersBloom.Value() - bloom; d != 1 || mBitmapFiltersExact.Value() != exact {
		t.Fatalf("string-key join published %d Bloom and %d exact filters, want 1 and 0",
			d, mBitmapFiltersExact.Value()-exact)
	}
	want := reference(rows, func(r sqltypes.Row) bool { return r[3].S == "north" }, []int{0})
	if len(rowsOut) != sumCounts(want) {
		t.Fatalf("join rows = %d, want %d", len(rowsOut), sumCounts(want))
	}
	// The bloom filter must have cut scan output well below total rows.
	if scan.Stats.RowsAfterBloom >= scan.Stats.RowsAfterRange {
		t.Fatalf("bloom did not filter: after=%d before=%d", scan.Stats.RowsAfterBloom, scan.Stats.RowsAfterRange)
	}
}

func sumCounts(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func TestHashAggGroupBy(t *testing.T) {
	rows := makeRows(3000, 9)
	tb := loadTable(t, rows)
	scan := NewScan(tb.Snapshot(), []int{1, 2})
	agg := NewHashAgg(scan, []int{0}, []string{"grp"}, []exec.AggSpec{
		{Kind: exec.CountStar, Name: "n"},
		{Kind: exec.Sum, Arg: expr.NewColRef(1, "price", sqltypes.Float64), Name: "total"},
		{Kind: exec.Min, Arg: expr.NewColRef(1, "price", sqltypes.Float64), Name: "lo"},
		{Kind: exec.Avg, Arg: expr.NewColRef(1, "price", sqltypes.Float64), Name: "avg"},
	})
	got, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	// Reference aggregation.
	type ref struct {
		n     int64
		sum   float64
		min   float64
		cnt   int64
		hasMn bool
	}
	refs := map[int64]*ref{}
	for _, r := range rows {
		if r[0].I%20 == 13 {
			continue
		}
		g := refs[r[1].I]
		if g == nil {
			g = &ref{}
			refs[r[1].I] = g
		}
		g.n++
		if !r[2].Null {
			g.sum += r[2].F
			g.cnt++
			if !g.hasMn || r[2].F < g.min {
				g.min = r[2].F
				g.hasMn = true
			}
		}
	}
	if len(got) != len(refs) {
		t.Fatalf("groups = %d, want %d", len(got), len(refs))
	}
	for _, r := range got {
		g := refs[r[0].I]
		if g == nil {
			t.Fatalf("phantom group %v", r[0])
		}
		if r[1].I != g.n {
			t.Fatalf("group %d: count %d, want %d", r[0].I, r[1].I, g.n)
		}
		if absF(r[2].F-g.sum) > 1e-6 {
			t.Fatalf("group %d: sum %f, want %f", r[0].I, r[2].F, g.sum)
		}
		if absF(r[3].F-g.min) > 1e-9 {
			t.Fatalf("group %d: min %f, want %f", r[0].I, r[3].F, g.min)
		}
		if absF(r[4].F-g.sum/float64(g.cnt)) > 1e-6 {
			t.Fatalf("group %d: avg wrong", r[0].I)
		}
	}
}

func absF(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

func TestHashAggDistinctAndScalar(t *testing.T) {
	sch := sqltypes.NewSchema(sqltypes.Column{Name: "x", Typ: sqltypes.Int64, Nullable: true})
	rows := []sqltypes.Row{
		{sqltypes.NewInt(1)}, {sqltypes.NewInt(2)}, {sqltypes.NewInt(2)},
		{sqltypes.NewNull(sqltypes.Int64)}, {sqltypes.NewInt(3)}, {sqltypes.NewInt(1)},
	}
	agg := NewHashAgg(&Values{Rows: rows, Sch: sch}, nil, nil, []exec.AggSpec{
		{Kind: exec.CountStar, Name: "n"},
		{Kind: exec.Count, Arg: expr.NewColRef(0, "x", sqltypes.Int64), Distinct: true, Name: "nd"},
		{Kind: exec.Sum, Arg: expr.NewColRef(0, "x", sqltypes.Int64), Distinct: true, Name: "sd"},
	})
	got, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("scalar agg rows = %d", len(got))
	}
	if got[0][0].I != 6 || got[0][1].I != 3 || got[0][2].I != 6 {
		t.Fatalf("distinct agg = %v", got[0])
	}
	// Scalar agg over empty input: one row, COUNT(*) = 0, SUM NULL.
	agg2 := NewHashAgg(&Values{Rows: nil, Sch: sch}, nil, nil, []exec.AggSpec{
		{Kind: exec.CountStar, Name: "n"},
		{Kind: exec.Sum, Arg: expr.NewColRef(0, "x", sqltypes.Int64), Name: "s"},
	})
	got2, err := Drain(agg2)
	if err != nil || len(got2) != 1 {
		t.Fatalf("empty scalar agg: %v %v", got2, err)
	}
	if got2[0][0].I != 0 || !got2[0][1].Null {
		t.Fatalf("empty scalar agg = %v", got2[0])
	}
}

func TestHashAggSpill(t *testing.T) {
	sch := sqltypes.NewSchema(
		sqltypes.Column{Name: "g", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "v", Typ: sqltypes.Int64},
	)
	rng := rand.New(rand.NewSource(11))
	var rows []sqltypes.Row
	refSums := map[int64]int64{}
	refCounts := map[int64]int64{}
	for i := 0; i < 20000; i++ {
		g := int64(rng.Intn(2000))
		v := int64(rng.Intn(100))
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(g), sqltypes.NewInt(v)})
		refSums[g] += v
		refCounts[g]++
	}
	tracker := NewTracker(8 << 10)
	agg := NewHashAgg(&Values{Rows: rows, Sch: sch}, []int{0}, []string{"g"}, []exec.AggSpec{
		{Kind: exec.CountStar, Name: "n"},
		{Kind: exec.Sum, Arg: expr.NewColRef(1, "v", sqltypes.Int64), Name: "s"},
	})
	agg.Tracker = tracker
	agg.SpillStore = storage.NewStore(0)
	got, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	if tracker.Spills() == 0 {
		t.Fatal("expected spilling")
	}
	if len(got) != len(refSums) {
		t.Fatalf("groups = %d, want %d", len(got), len(refSums))
	}
	for _, r := range got {
		if r[1].I != refCounts[r[0].I] || r[2].I != refSums[r[0].I] {
			t.Fatalf("group %d wrong under spill: %v", r[0].I, r)
		}
	}
}

func TestSortAndTopN(t *testing.T) {
	rows := makeRows(1000, 12)
	sch := testSchema()
	keys := []exec.SortKey{
		{E: expr.NewColRef(1, "grp", sqltypes.Int64)},
		{E: expr.NewColRef(0, "id", sqltypes.Int64), Desc: true},
	}
	srt := &Sort{In: &Values{Rows: rows, Sch: sch}, Keys: keys}
	sorted, err := Drain(srt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sorted); i++ {
		if exec.CompareRows(keys, sorted[i-1], sorted[i]) > 0 {
			t.Fatalf("sort violated at %d", i)
		}
	}
	topn := &TopN{In: &Values{Rows: rows, Sch: sch}, Keys: keys, N: 25}
	top, err := Drain(topn)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 25 {
		t.Fatalf("topn returned %d", len(top))
	}
	for i := range top {
		if exec.CompareRows(keys, top[i], sorted[i]) != 0 {
			t.Fatalf("topn[%d] != sorted[%d]", i, i)
		}
	}
}

func TestUnionAll(t *testing.T) {
	rows := makeRows(100, 13)
	sch := testSchema()
	u := &UnionAll{Ins: []Operator{
		&Values{Rows: rows[:30], Sch: sch},
		&Values{Rows: rows[30:60], Sch: sch},
		&Values{Rows: rows[60:], Sch: sch},
	}}
	got, err := Drain(u)
	if err != nil || len(got) != 100 {
		t.Fatalf("union rows = %d, err %v", len(got), err)
	}
}

func TestScanParallelMatchesSerial(t *testing.T) {
	rows := makeRows(8000, 14)
	tb := loadTable(t, rows)
	serial := NewScan(tb.Snapshot(), []int{0, 1, 2, 3, 4})
	par := NewScan(tb.Snapshot(), []int{0, 1, 2, 3, 4})
	par.Parallel = 4
	a := gotRows(t, serial)
	b := gotRows(t, par)
	if !mapsEqual(a, b) {
		t.Fatal("parallel scan output differs from serial")
	}
}

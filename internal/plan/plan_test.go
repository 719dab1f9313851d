package plan

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"apollo/internal/exec"
	"apollo/internal/expr"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/table"
)

// Star-schema fixtures: a fact table and a dimension table.

func factSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Column{Name: "fk", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "qty", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "price", Typ: sqltypes.Float64},
		sqltypes.Column{Name: "d", Typ: sqltypes.Date},
	)
}

func dimSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Column{Name: "pk", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "name", Typ: sqltypes.String},
		sqltypes.Column{Name: "cat", Typ: sqltypes.String},
	)
}

type fixture struct {
	fact, dim         *table.Table
	factRows, dimRows []sqltypes.Row
}

func makeFixture(t *testing.T, nFact, nDim int) *fixture {
	t.Helper()
	store := storage.NewStore(storage.DefaultBufferPoolBytes)
	opts := table.Options{RowGroupSize: 400, BulkLoadThreshold: 50, Columnstore: table.DefaultOptions().Columnstore}
	f := &fixture{}
	rng := rand.New(rand.NewSource(21))
	cats := []string{"tools", "toys", "food"}
	for i := 0; i < nDim; i++ {
		f.dimRows = append(f.dimRows, sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("name%d", i)),
			sqltypes.NewString(cats[i%len(cats)]),
		})
	}
	for i := 0; i < nFact; i++ {
		f.factRows = append(f.factRows, sqltypes.Row{
			sqltypes.NewInt(int64(rng.Intn(nDim))),
			sqltypes.NewInt(int64(1 + rng.Intn(10))),
			sqltypes.NewFloat(float64(rng.Intn(10000)) / 100),
			sqltypes.NewDate(int64(9000 + rng.Intn(365))),
		})
	}
	f.fact = table.New(store, "fact", factSchema(), opts)
	if _, err := f.fact.BulkLoad(context.Background(), f.factRows); err != nil {
		t.Fatal(err)
	}
	f.dim = table.New(store, "dim", dimSchema(), opts)
	if _, err := f.dim.BulkLoad(context.Background(), f.dimRows); err != nil {
		t.Fatal(err)
	}
	return f
}

func col(i int, name string, t sqltypes.Type) *expr.ColRef { return expr.NewColRef(i, name, t) }

// starPlan: SELECT cat, SUM(qty) FROM fact JOIN dim ON fk = pk
// WHERE d BETWEEN lo AND hi AND cat = 'tools' GROUP BY cat
func starPlan(f *fixture, dateLo, dateHi int64) Node {
	join := &Join{
		Left:  &Scan{Table: f.fact},
		Right: &Scan{Table: f.dim},
		Type:  exec.Inner,
		Residual: expr.NewCmp(expr.EQ,
			col(0, "fk", sqltypes.Int64),
			col(4, "pk", sqltypes.Int64)),
	}
	where := &Filter{In: join, Pred: expr.NewAnd(
		expr.NewCmp(expr.GE, col(3, "d", sqltypes.Date), expr.NewConst(sqltypes.NewDate(dateLo))),
		expr.NewCmp(expr.LE, col(3, "d", sqltypes.Date), expr.NewConst(sqltypes.NewDate(dateHi))),
		expr.NewCmp(expr.EQ, col(6, "cat", sqltypes.String), expr.NewConst(sqltypes.NewString("tools"))),
	)}
	return &Agg{
		In:      where,
		GroupBy: []expr.Expr{col(6, "cat", sqltypes.String)},
		Names:   []string{"cat"},
		Aggs: []exec.AggSpec{
			{Kind: exec.Sum, Arg: col(1, "qty", sqltypes.Int64), Name: "total"},
			{Kind: exec.CountStar, Name: "n"},
		},
	}
}

// refStar computes the expected result directly.
func refStar(f *fixture, dateLo, dateHi int64) (total, n int64) {
	for _, r := range f.factRows {
		if r[3].I < dateLo || r[3].I > dateHi {
			continue
		}
		d := f.dimRows[r[0].I]
		if d[2].S != "tools" {
			continue
		}
		total += r[1].I
		n++
	}
	return
}

func runModes(t *testing.T, node Node, opts Options) map[Mode][]sqltypes.Row {
	t.Helper()
	out := map[Mode][]sqltypes.Row{}
	for _, m := range []Mode{Mode2014, Mode2012, ModeRow} {
		o := opts
		o.Mode = m
		c, err := Compile(node, o)
		if err != nil {
			t.Fatalf("mode %v: %v", m, err)
		}
		rows, err := c.Run()
		if err != nil {
			t.Fatalf("mode %v: %v", m, err)
		}
		out[m] = rows
	}
	return out
}

func TestStarQueryAllModesAgree(t *testing.T) {
	f := makeFixture(t, 5000, 60)
	node := starPlan(f, 9100, 9200)
	wantTotal, wantN := refStar(f, 9100, 9200)
	for mode, rows := range runModes(t, starPlan(f, 9100, 9200), Options{}) {
		if len(rows) != 1 {
			t.Fatalf("mode %v: rows = %d", mode, len(rows))
		}
		r := rows[0]
		if r[0].S != "tools" || r[1].I != wantTotal || r[2].I != wantN {
			t.Fatalf("mode %v: got %v, want tools/%d/%d", mode, r, wantTotal, wantN)
		}
	}
	_ = node
}

func TestPushdownReachesScan(t *testing.T) {
	f := makeFixture(t, 3000, 40)
	c, err := Compile(starPlan(f, 9050, 9100), Options{Mode: Mode2014})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// The date range must have been pushed into a scan as an exact range.
	var narrowed bool
	for _, st := range c.ScanStats {
		if st.RowsAfterRange < st.RowsConsidered {
			narrowed = true
		}
	}
	if !narrowed {
		t.Fatalf("no scan narrowed rows; explain:\n%s", c.Explain())
	}
}

func TestBloomPlacement(t *testing.T) {
	f := makeFixture(t, 5000, 60)
	// Selective dimension filter -> bloom on the fact scan.
	c, err := Compile(starPlan(f, 8000, 12000), Options{Mode: Mode2014})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	filtered := false
	for _, st := range c.ScanStats {
		if st.RowsAfterBloom < st.RowsAfterRange {
			filtered = true
		}
	}
	if !filtered {
		t.Fatalf("bloom never filtered; explain:\n%s", c.Explain())
	}
	// With NoBloom the counts must stay equal.
	c2, err := Compile(starPlan(f, 8000, 12000), Options{Mode: Mode2014, NoBloom: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run(); err != nil {
		t.Fatal(err)
	}
	for _, st := range c2.ScanStats {
		if st.RowsAfterBloom != st.RowsAfterRange {
			t.Fatal("NoBloom still filtered")
		}
	}
}

func TestBuildSideSwap(t *testing.T) {
	f := makeFixture(t, 4000, 50)
	// Write the join with the big fact table on the BUILD (right) side; the
	// optimizer should swap so the dimension becomes the build.
	join := &Join{
		Left:  &Scan{Table: f.dim},
		Right: &Scan{Table: f.fact},
		Type:  exec.Inner,
		Residual: expr.NewCmp(expr.EQ,
			col(0, "pk", sqltypes.Int64),
			col(3, "fk", sqltypes.Int64)),
	}
	c, err := Compile(join, Options{Mode: Mode2014})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Tree(c.Plan), "Join") {
		t.Fatal("join missing")
	}
	rows, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(f.factRows) {
		t.Fatalf("rows = %d, want %d", len(rows), len(f.factRows))
	}
	// Output order: dim columns first (as written).
	if rows[0][0].Typ != sqltypes.Int64 || c.Schema.Cols[1].Name != "name" {
		t.Fatalf("schema order lost: %v", c.Schema)
	}
	// Non-swapped run must agree.
	c2, err := Compile(&Join{
		Left: &Scan{Table: f.dim}, Right: &Scan{Table: f.fact}, Type: exec.Inner,
		Residual: expr.NewCmp(expr.EQ, col(0, "pk", sqltypes.Int64), col(3, "fk", sqltypes.Int64)),
	}, Options{Mode: Mode2014, NoBuildSideSwap: true})
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != len(rows) {
		t.Fatalf("swap changed cardinality: %d vs %d", len(rows), len(rows2))
	}
	count := func(rs []sqltypes.Row) map[string]int {
		m := map[string]int{}
		for _, r := range rs {
			m[r.String()]++
		}
		return m
	}
	ca, cb := count(rows), count(rows2)
	for k, v := range ca {
		if cb[k] != v {
			t.Fatalf("swap changed results at %q", k)
		}
	}
}

func TestMode2012FallsBackForOuterJoin(t *testing.T) {
	f := makeFixture(t, 1000, 20)
	join := &Join{
		Left:      &Scan{Table: f.fact},
		Right:     &Scan{Table: f.dim},
		Type:      exec.LeftOuter,
		LeftKeys:  []expr.Expr{col(0, "fk", sqltypes.Int64)},
		RightKeys: []expr.Expr{col(0, "pk", sqltypes.Int64)},
	}
	c12, err := Compile(join, Options{Mode: Mode2012, NoBuildSideSwap: true})
	if err != nil {
		t.Fatal(err)
	}
	if c12.BatchMode {
		t.Fatal("2012 mode must fall back to row mode for outer join")
	}
	c14, err := Compile(join, Options{Mode: Mode2014, NoBuildSideSwap: true})
	if err != nil {
		t.Fatal(err)
	}
	if !c14.BatchMode {
		t.Fatal("2014 mode must stay batch")
	}
	r12, err := c12.Run()
	if err != nil {
		t.Fatal(err)
	}
	r14, err := c14.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r12) != len(r14) {
		t.Fatalf("modes disagree: %d vs %d", len(r12), len(r14))
	}
}

func TestMode2012StaysBatchForInnerJoinAgg(t *testing.T) {
	f := makeFixture(t, 1000, 20)
	c, err := Compile(starPlan(f, 9000, 9400), Options{Mode: Mode2012})
	if err != nil {
		t.Fatal(err)
	}
	if !c.BatchMode {
		t.Fatal("2012 should support inner join + group-by agg in batch")
	}
}

func TestTopNCompilation(t *testing.T) {
	f := makeFixture(t, 2000, 30)
	node := &Limit{
		N: 5,
		In: &Sort{
			In:   &Scan{Table: f.fact},
			Keys: []exec.SortKey{{E: col(2, "price", sqltypes.Float64), Desc: true}},
		},
	}
	for mode, rows := range runModes(t, node, Options{}) {
		if len(rows) != 5 {
			t.Fatalf("mode %v: rows = %d", mode, len(rows))
		}
		for i := 1; i < len(rows); i++ {
			if rows[i-1][2].F < rows[i][2].F {
				t.Fatalf("mode %v: order violated", mode)
			}
		}
	}
}

func TestSemiJoinPlan(t *testing.T) {
	f := makeFixture(t, 2000, 30)
	// fact rows whose dim is in category 'toys' (semi join).
	dimScan := &Filter{
		In:   &Scan{Table: f.dim},
		Pred: expr.NewCmp(expr.EQ, col(2, "cat", sqltypes.String), expr.NewConst(sqltypes.NewString("toys"))),
	}
	semi := &Join{
		Left: &Scan{Table: f.fact}, Right: dimScan, Type: exec.LeftSemi,
		LeftKeys:  []expr.Expr{col(0, "fk", sqltypes.Int64)},
		RightKeys: []expr.Expr{col(0, "pk", sqltypes.Int64)},
	}
	want := 0
	for _, r := range f.factRows {
		if f.dimRows[r[0].I][2].S == "toys" {
			want++
		}
	}
	for mode, rows := range runModes(t, semi, Options{}) {
		if len(rows) != want {
			t.Fatalf("mode %v: semi rows = %d, want %d", mode, len(rows), want)
		}
	}
}

func TestUnionPlan(t *testing.T) {
	f := makeFixture(t, 500, 10)
	mk := func(lo int64) Node {
		return &Filter{
			In:   &Scan{Table: f.fact},
			Pred: expr.NewCmp(expr.GE, col(3, "d", sqltypes.Date), expr.NewConst(sqltypes.NewDate(lo))),
		}
	}
	u := &Union{Ins: []Node{mk(9000), mk(9900)}}
	res := runModes(t, u, Options{})
	if len(res[Mode2014]) != len(res[ModeRow]) {
		t.Fatalf("union disagrees: %d vs %d", len(res[Mode2014]), len(res[ModeRow]))
	}
	// 2012 must fall back for UNION ALL.
	c, err := Compile(u, Options{Mode: Mode2012})
	if err != nil {
		t.Fatal(err)
	}
	if c.BatchMode {
		t.Fatal("2012 must fall back for UNION ALL")
	}
}

func TestSpillThroughPlanner(t *testing.T) {
	f := makeFixture(t, 20000, 2000)
	join := &Join{
		Left: &Scan{Table: f.fact}, Right: &Scan{Table: f.dim}, Type: exec.Inner,
		LeftKeys:  []expr.Expr{col(0, "fk", sqltypes.Int64)},
		RightKeys: []expr.Expr{col(0, "pk", sqltypes.Int64)},
	}
	spill := storage.NewStore(0)
	c, err := Compile(join, Options{Mode: Mode2014, MemoryBudget: 16 << 10, SpillStore: spill, NoBuildSideSwap: true, NoBloom: true})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20000 {
		t.Fatalf("rows = %d", len(rows))
	}
	if c.Tracker == nil || c.Tracker.Spills() == 0 {
		t.Fatal("expected spill under tiny grant")
	}
}

func TestParallelPlanAgrees(t *testing.T) {
	f := makeFixture(t, 10000, 100)
	node := starPlan(f, 9000, 9365)
	serial, err := Compile(starPlan(f, 9000, 9365), Options{Mode: Mode2014})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Compile(node, Options{Mode: Mode2014, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := serial.Run()
	if err != nil {
		t.Fatal(err)
	}
	rp, err := par.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || len(rp) != 1 || rs[0][1].I != rp[0][1].I || rs[0][2].I != rp[0][2].I {
		t.Fatalf("parallel disagrees: %v vs %v", rs, rp)
	}
}

func TestMetadataOnlyAggregates(t *testing.T) {
	f := makeFixture(t, 3000, 40)
	node := &Agg{
		In: &Scan{Table: f.fact},
		Aggs: []exec.AggSpec{
			{Kind: exec.CountStar, Name: "n"},
			{Kind: exec.Min, Arg: col(3, "d", sqltypes.Date), Name: "mn"},
			{Kind: exec.Max, Arg: col(2, "price", sqltypes.Float64), Name: "mx"},
		},
	}
	c, err := Compile(node, Options{Mode: Mode2014})
	if err != nil {
		t.Fatal(err)
	}
	if !c.MetadataOnly {
		t.Fatalf("expected metadata-only plan:\n%s", c.Explain())
	}
	rows, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against the general path.
	c2, err := Compile(node, Options{Mode: ModeRow})
	if err != nil {
		t.Fatal(err)
	}
	want, err := c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].String() != want[0].String() {
		t.Fatalf("metadata agg %v != general %v", rows[0], want[0])
	}

	// With deletes present, MIN/MAX must fall back to the general path.
	f.fact.DeleteWhere(func(r sqltypes.Row) bool { return r[0].I == 0 })
	c3, err := Compile(node, Options{Mode: Mode2014})
	if err != nil {
		t.Fatal(err)
	}
	if c3.MetadataOnly {
		t.Fatal("MIN/MAX metadata shortcut taken despite deletes")
	}
	// COUNT(*) alone stays metadata-only even with deletes.
	countOnly := &Agg{In: &Scan{Table: f.fact}, Aggs: []exec.AggSpec{{Kind: exec.CountStar, Name: "n"}}}
	c4, err := Compile(countOnly, Options{Mode: Mode2014})
	if err != nil {
		t.Fatal(err)
	}
	if !c4.MetadataOnly {
		t.Fatal("COUNT(*) should stay metadata-only under deletes")
	}
	rows4, err := c4.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rows4[0][0].I != int64(f.fact.Rows()) {
		t.Fatalf("count = %v, want %d", rows4[0][0], f.fact.Rows())
	}

	// A filtered scan must not take the shortcut.
	filtered := &Agg{
		In:   &Scan{Table: f.fact, Filter: expr.NewCmp(expr.GT, col(1, "qty", sqltypes.Int64), expr.NewConst(sqltypes.NewInt(5)))},
		Aggs: []exec.AggSpec{{Kind: exec.CountStar, Name: "n"}},
	}
	c5, err := Compile(filtered, Options{Mode: Mode2014})
	if err != nil {
		t.Fatal(err)
	}
	if c5.MetadataOnly {
		t.Fatal("filtered scan took metadata shortcut")
	}
}

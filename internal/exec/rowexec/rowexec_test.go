package rowexec

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

func testSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "grp", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "price", Typ: sqltypes.Float64, Nullable: true},
		sqltypes.Column{Name: "region", Typ: sqltypes.String},
	)
}

func makeRows(n int, seed int64) []sqltypes.Row {
	rng := rand.New(rand.NewSource(seed))
	regions := []string{"north", "south", "east", "west"}
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		price := sqltypes.NewFloat(float64(rng.Intn(1000)) / 10)
		if rng.Intn(20) == 0 {
			price = sqltypes.NewNull(sqltypes.Float64)
		}
		rows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(rng.Intn(10))),
			price,
			sqltypes.NewString(regions[rng.Intn(4)]),
		}
	}
	return rows
}

func loadTable(t *testing.T, rows []sqltypes.Row) *table.Table {
	t.Helper()
	store := storage.NewStore(storage.DefaultBufferPoolBytes)
	opts := table.Options{RowGroupSize: 300, BulkLoadThreshold: 50, Columnstore: table.DefaultOptions().Columnstore}
	tb := table.New(store, "t", testSchema(), opts)
	split := len(rows) * 4 / 5
	if _, err := tb.BulkLoad(context.Background(), rows[:split]); err != nil {
		t.Fatal(err)
	}
	if err := tb.InsertMany(rows[split:]); err != nil {
		t.Fatal(err)
	}
	return tb
}

func keys(rows []sqltypes.Row) map[string]int {
	out := map[string]int{}
	for _, r := range rows {
		k := ""
		for _, v := range r {
			k += v.String() + "|"
		}
		out[k]++
	}
	return out
}

func sameRows(a, b []sqltypes.Row) bool {
	ka, kb := keys(a), keys(b)
	if len(ka) != len(kb) {
		return false
	}
	for k, v := range ka {
		if kb[k] != v {
			return false
		}
	}
	return true
}

func TestScanMatchesSource(t *testing.T) {
	rows := makeRows(1500, 1)
	tb := loadTable(t, rows)
	got, err := Drain(NewScan(tb.Snapshot(), nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(got, rows) {
		t.Fatal("scan does not reproduce source rows")
	}
}

func TestScanFilterProjection(t *testing.T) {
	rows := makeRows(1500, 2)
	tb := loadTable(t, rows)
	pred := expr.NewCmp(expr.LT, expr.NewColRef(0, "id", sqltypes.Int64), expr.NewConst(sqltypes.NewInt(100)))
	got, err := Drain(NewScan(tb.Snapshot(), pred, []int{3, 0}))
	if err != nil {
		t.Fatal(err)
	}
	var want []sqltypes.Row
	for _, r := range rows {
		if r[0].I < 100 {
			want = append(want, sqltypes.Row{r[3], r[0]})
		}
	}
	if !sameRows(got, want) {
		t.Fatal("filtered projected scan mismatch")
	}
}

func TestFilterOperator(t *testing.T) {
	rows := makeRows(500, 3)
	in := &Values{Rows: rows, Sch: testSchema()}
	f := &Filter{In: in, Pred: expr.NewCmp(expr.EQ, expr.NewColRef(1, "grp", sqltypes.Int64), expr.NewConst(sqltypes.NewInt(3)))}
	got, err := Drain(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r[1].I != 3 {
			t.Fatalf("bad row %v", r)
		}
	}
}

func TestProjectOperator(t *testing.T) {
	rows := makeRows(100, 4)
	in := &Values{Rows: rows, Sch: testSchema()}
	p := NewProject(in, []expr.Expr{
		expr.NewArith(expr.Add, expr.NewColRef(0, "id", sqltypes.Int64), expr.NewConst(sqltypes.NewInt(1000))),
	}, []string{"id1k"})
	got, err := Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].I != rows[0][0].I+1000 {
		t.Fatal("projection wrong")
	}
	if p.Schema().Cols[0].Name != "id1k" {
		t.Fatal("schema name wrong")
	}
}

func TestSortLimitOffset(t *testing.T) {
	rows := makeRows(200, 5)
	in := &Values{Rows: rows, Sch: testSchema()}
	s := &Sort{In: in, Keys: []exec.SortKey{{E: expr.NewColRef(0, "id", sqltypes.Int64), Desc: true}}}
	l := &Limit{In: s, Offset: 5, N: 10}
	got, err := Drain(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("rows = %d", len(got))
	}
	if got[0][0].I != 194 || got[9][0].I != 185 {
		t.Fatalf("order wrong: %v ... %v", got[0][0], got[9][0])
	}
}

func TestUnionAllOperator(t *testing.T) {
	rows := makeRows(90, 6)
	sch := testSchema()
	u := &UnionAll{Ins: []Operator{
		&Values{Rows: rows[:30], Sch: sch},
		&Values{Rows: rows[30:], Sch: sch},
	}}
	got, err := Drain(u)
	if err != nil || len(got) != 90 {
		t.Fatalf("union = %d, err %v", len(got), err)
	}
}

func joinData() (fact, dim []sqltypes.Row, factSch, dimSch *sqltypes.Schema) {
	rng := rand.New(rand.NewSource(9))
	factSch = sqltypes.NewSchema(
		sqltypes.Column{Name: "fk", Typ: sqltypes.Int64, Nullable: true},
		sqltypes.Column{Name: "v", Typ: sqltypes.Int64},
	)
	dimSch = sqltypes.NewSchema(
		sqltypes.Column{Name: "pk", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "nm", Typ: sqltypes.String},
	)
	for i := 0; i < 500; i++ {
		fk := sqltypes.NewInt(int64(rng.Intn(60)))
		if rng.Intn(15) == 0 {
			fk = sqltypes.NewNull(sqltypes.Int64)
		}
		fact = append(fact, sqltypes.Row{fk, sqltypes.NewInt(int64(i))})
	}
	for i := 0; i < 30; i++ {
		dim = append(dim, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("d%d", i))})
	}
	return
}

func TestHashJoinTypes(t *testing.T) {
	fact, dim, factSch, dimSch := joinData()
	for _, jt := range []exec.JoinType{exec.Inner, exec.LeftOuter, exec.RightOuter, exec.FullOuter, exec.LeftSemi, exec.LeftAnti} {
		j, err := NewHashJoin(&Values{Rows: fact, Sch: factSch}, &Values{Rows: dim, Sch: dimSch},
			[]expr.Expr{expr.NewColRef(0, "fk", sqltypes.Int64)},
			[]expr.Expr{expr.NewColRef(0, "pk", sqltypes.Int64)},
			jt, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Drain(j)
		if err != nil {
			t.Fatal(err)
		}
		// Brute-force reference.
		var want []sqltypes.Row
		dimMatched := make([]bool, len(dim))
		for _, f := range fact {
			matched := false
			for di, d := range dim {
				if !f[0].Null && f[0].I == d[0].I {
					matched = true
					dimMatched[di] = true
					if jt != exec.LeftSemi && jt != exec.LeftAnti {
						want = append(want, append(f.Clone(), d...))
					}
				}
			}
			switch {
			case jt == exec.LeftSemi && matched,
				jt == exec.LeftAnti && !matched:
				want = append(want, f)
			case (jt == exec.LeftOuter || jt == exec.FullOuter) && !matched:
				want = append(want, append(f.Clone(), sqltypes.NewNull(sqltypes.Int64), sqltypes.NewNull(sqltypes.String)))
			}
		}
		if jt == exec.RightOuter || jt == exec.FullOuter {
			for di, d := range dim {
				if !dimMatched[di] {
					want = append(want, append(sqltypes.Row{sqltypes.NewNull(sqltypes.Int64), sqltypes.NewNull(sqltypes.Int64)}, d...))
				}
			}
		}
		if !sameRows(got, want) {
			t.Fatalf("%v: join mismatch (%d vs %d rows)", jt, len(got), len(want))
		}
	}
}

func TestNestedLoopJoin(t *testing.T) {
	fact, dim, factSch, dimSch := joinData()
	// Non-equi predicate: fk < pk.
	pred := expr.NewCmp(expr.LT, expr.NewColRef(0, "fk", sqltypes.Int64), expr.NewColRef(2, "pk", sqltypes.Int64))
	for _, jt := range []exec.JoinType{exec.Inner, exec.LeftOuter} {
		j, err := NewNestedLoopJoin(&Values{Rows: fact, Sch: factSch}, &Values{Rows: dim, Sch: dimSch}, pred, jt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Drain(j)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, f := range fact {
			m := 0
			for _, d := range dim {
				if !f[0].Null && f[0].I < d[0].I {
					m++
				}
			}
			if m == 0 && jt == exec.LeftOuter {
				m = 1
			}
			want += m
		}
		if len(got) != want {
			t.Fatalf("%v: rows = %d, want %d", jt, len(got), want)
		}
	}
	if _, err := NewNestedLoopJoin(nil, nil, nil, exec.FullOuter); err == nil {
		t.Fatal("full outer nested loops accepted")
	}
}

func TestHashAggregate(t *testing.T) {
	rows := makeRows(2000, 7)
	in := &Values{Rows: rows, Sch: testSchema()}
	agg := NewHashAggregate(in,
		[]expr.Expr{expr.NewColRef(1, "grp", sqltypes.Int64)}, []string{"grp"},
		[]exec.AggSpec{
			{Kind: exec.CountStar, Name: "n"},
			{Kind: exec.Count, Arg: expr.NewColRef(2, "price", sqltypes.Float64), Name: "np"},
			{Kind: exec.Sum, Arg: expr.NewColRef(2, "price", sqltypes.Float64), Name: "s"},
			{Kind: exec.Max, Arg: expr.NewColRef(3, "region", sqltypes.String), Name: "mx"},
			{Kind: exec.Count, Arg: expr.NewColRef(3, "region", sqltypes.String), Distinct: true, Name: "ndr"},
		})
	got, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	type ref struct {
		n, np, ndr int64
		s          float64
		mx         string
		regions    map[string]bool
	}
	refs := map[int64]*ref{}
	for _, r := range rows {
		g := refs[r[1].I]
		if g == nil {
			g = &ref{regions: map[string]bool{}}
			refs[r[1].I] = g
		}
		g.n++
		if !r[2].Null {
			g.np++
			g.s += r[2].F
		}
		if r[3].S > g.mx {
			g.mx = r[3].S
		}
		g.regions[r[3].S] = true
	}
	if len(got) != len(refs) {
		t.Fatalf("groups = %d want %d", len(got), len(refs))
	}
	for _, r := range got {
		g := refs[r[0].I]
		if r[1].I != g.n || r[2].I != g.np || r[4].S != g.mx || r[5].I != int64(len(g.regions)) {
			t.Fatalf("group %d mismatch: %v", r[0].I, r)
		}
		if d := r[3].F - g.s; d > 1e-6 || d < -1e-6 {
			t.Fatalf("group %d sum mismatch", r[0].I)
		}
	}
}

func TestScalarAggregateEmptyInput(t *testing.T) {
	agg := NewHashAggregate(&Values{Rows: nil, Sch: testSchema()}, nil, nil,
		[]exec.AggSpec{
			{Kind: exec.CountStar, Name: "n"},
			{Kind: exec.Min, Arg: expr.NewColRef(0, "id", sqltypes.Int64), Name: "mn"},
		})
	got, err := Drain(agg)
	if err != nil || len(got) != 1 {
		t.Fatalf("scalar agg: %v, %v", got, err)
	}
	if got[0][0].I != 0 || !got[0][1].Null {
		t.Fatalf("scalar agg row = %v", got[0])
	}
}

func TestLikeInScanFilter(t *testing.T) {
	rows := makeRows(400, 8)
	tb := loadTable(t, rows)
	pred := expr.NewLike(expr.NewColRef(3, "region", sqltypes.String), "%th", false) // north, south
	got, err := Drain(NewScan(tb.Snapshot(), pred, []int{3}))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if !strings.HasSuffix(r[0].S, "th") {
			t.Fatalf("bad row %v", r)
		}
	}
	want := 0
	for _, r := range rows {
		if strings.HasSuffix(r[3].S, "th") {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("rows = %d, want %d", len(got), want)
	}
}

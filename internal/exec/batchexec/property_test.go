package batchexec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"apollo/internal/bloom"
	"apollo/internal/colstore"
	"apollo/internal/encoding"
	"apollo/internal/exec"
	"apollo/internal/exec/rowexec"
	"apollo/internal/expr"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/table"
)

// Property: for random range predicates, a scan with encoded-domain pushdown
// produces exactly the rows a residual-only scan produces — pushdown is a
// pure optimization, never a semantic change.
func TestQuickPushdownEquivalence(t *testing.T) {
	rows := makeRows(4000, 99)
	tb := loadTable(t, rows)
	rng := rand.New(rand.NewSource(123))

	for trial := 0; trial < 40; trial++ {
		// Random closed range on a random pushable column.
		col := []int{0, 1, 4}[rng.Intn(3)] // id, grp, d — integer-family
		typ := testSchema().Cols[col].Typ
		var lo, hi sqltypes.Value
		switch col {
		case 0:
			a, b := int64(rng.Intn(4000)), int64(rng.Intn(4000))
			if a > b {
				a, b = b, a
			}
			lo, hi = sqltypes.Value{Typ: typ, I: a}, sqltypes.Value{Typ: typ, I: b}
		case 1:
			a, b := int64(rng.Intn(50)), int64(rng.Intn(50))
			if a > b {
				a, b = b, a
			}
			lo, hi = sqltypes.Value{Typ: typ, I: a}, sqltypes.Value{Typ: typ, I: b}
		default:
			a, b := int64(9000+rng.Intn(1000)), int64(9000+rng.Intn(1000))
			if a > b {
				a, b = b, a
			}
			lo, hi = sqltypes.Value{Typ: typ, I: a}, sqltypes.Value{Typ: typ, I: b}
		}
		// Unbounded sides sometimes.
		if rng.Intn(4) == 0 {
			lo = sqltypes.NewNull(typ)
		}
		if rng.Intn(4) == 0 {
			hi = sqltypes.NewNull(typ)
		}

		cols := []int{0, col}
		if col == 0 {
			cols = []int{0}
		}

		pushed := NewScan(tb.Snapshot(), cols)
		pushed.Pushdowns = []Pushdown{{Col: col, Lo: lo, Hi: hi}}

		// Residual-only equivalent (bound to scan output positions).
		outPos := 0
		for i, c := range cols {
			if c == col {
				outPos = i
			}
		}
		ref := expr.NewColRef(outPos, "c", typ)
		var conj []expr.Expr
		if !lo.Null {
			conj = append(conj, expr.NewCmp(expr.GE, ref, expr.NewConst(lo)))
		}
		if !hi.Null {
			conj = append(conj, expr.NewCmp(expr.LE, ref, expr.NewConst(hi)))
		}
		plain := NewScan(tb.Snapshot(), cols)
		if len(conj) == 1 {
			plain.Residual = conj[0]
		} else if len(conj) == 2 {
			plain.Residual = expr.NewAnd(conj...)
		}

		a := gotRows(t, pushed)
		b := gotRows(t, plain)
		if !mapsEqual(a, b) {
			t.Fatalf("trial %d: pushdown [%v..%v] on col %d diverged: %d vs %d distinct keys",
				trial, lo, hi, col, len(a), len(b))
		}
	}
}

// Property: string equality pushdown (dictionary code lookup) matches the
// residual evaluation, including values absent from the dictionary.
func TestQuickStringPushdownEquivalence(t *testing.T) {
	rows := makeRows(3000, 101)
	tb := loadTable(t, rows)
	candidates := append(append([]string{}, regions...), "atlantis", "", "n")
	for _, s := range candidates {
		v := sqltypes.NewString(s)
		pushed := NewScan(tb.Snapshot(), []int{0, 3})
		pushed.Pushdowns = []Pushdown{{Col: 3, Lo: v, Hi: v}}
		plain := NewScan(tb.Snapshot(), []int{0, 3})
		plain.Residual = expr.NewCmp(expr.EQ, expr.NewColRef(1, "region", sqltypes.String), expr.NewConst(v))
		if !mapsEqual(gotRows(t, pushed), gotRows(t, plain)) {
			t.Fatalf("string pushdown diverged for %q", s)
		}
	}
}

// Property: the scan's delete-bitmap masking plus pushdowns never resurrect
// a deleted row and never lose a live one, under random delete patterns.
func TestQuickDeletesUnderPushdown(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := makeRows(2000, 103)
	tb := loadTable(t, rows) // loadTable already deletes id%20==13
	// Random extra deletes.
	deleted := map[int64]bool{}
	for _, r := range rows {
		if r[0].I%20 == 13 {
			deleted[r[0].I] = true
		}
	}
	tb.DeleteWhere(func(r sqltypes.Row) bool {
		if rng.Intn(10) == 0 && !deleted[r[0].I] {
			deleted[r[0].I] = true
			return true
		}
		return false
	})

	scan := NewScan(tb.Snapshot(), []int{0})
	scan.Pushdowns = []Pushdown{{Col: 0, Lo: sqltypes.NewInt(100), Hi: sqltypes.NewInt(1500)}}
	seen := map[int64]bool{}
	rowsOut, err := Drain(scan)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rowsOut {
		id := r[0].I
		if deleted[id] {
			t.Fatalf("deleted row %d resurrected", id)
		}
		if id < 100 || id > 1500 {
			t.Fatalf("out-of-range row %d", id)
		}
		if seen[id] {
			t.Fatalf("duplicate row %d", id)
		}
		seen[id] = true
	}
	want := 0
	for _, r := range rows {
		if !deleted[r[0].I] && r[0].I >= 100 && r[0].I <= 1500 {
			want++
		}
	}
	if len(seen) != want {
		t.Fatalf("rows = %d, want %d", len(seen), want)
	}
}

// Property: dictionary-predicate pushdown (LIKE, IN, <>) matches residual
// evaluation exactly, including NULL handling.
func TestQuickDictPredEquivalence(t *testing.T) {
	rows := makeRows(3000, 107)
	tb := loadTable(t, rows)
	preds := []expr.Expr{
		expr.NewLike(expr.NewColRef(0, "region", sqltypes.String), "%th", false),
		expr.NewLike(expr.NewColRef(0, "region", sqltypes.String), "n%", true),
		expr.NewInList(expr.NewColRef(0, "region", sqltypes.String),
			[]sqltypes.Value{sqltypes.NewString("east"), sqltypes.NewString("west")}),
		expr.NewCmp(expr.NE, expr.NewColRef(0, "region", sqltypes.String), expr.NewConst(sqltypes.NewString("south"))),
		expr.NewOr(
			expr.NewCmp(expr.EQ, expr.NewColRef(0, "region", sqltypes.String), expr.NewConst(sqltypes.NewString("north"))),
			expr.NewLike(expr.NewColRef(0, "region", sqltypes.String), "%st", false)),
	}
	for pi, pred := range preds {
		pushed := NewScan(tb.Snapshot(), []int{0, 3})
		pushed.DictPreds = []DictPred{{Col: 3, Pred: expr.Remap(pred, map[int]int{0: 0})}}
		plain := NewScan(tb.Snapshot(), []int{0, 3})
		plain.Residual = expr.Remap(pred, map[int]int{0: 1})
		a, b := gotRows(t, pushed), gotRows(t, plain)
		if !mapsEqual(a, b) {
			t.Fatalf("pred %d diverged: %d vs %d keys", pi, len(a), len(b))
		}
		// The dict path must have filtered before materialization.
		if pushed.Stats.RowsAfterRange >= pushed.Stats.RowsConsidered && len(a) < 2000 {
			t.Fatalf("pred %d: no encoded-domain narrowing", pi)
		}
	}
}

// --- Late-materialization parity: batch mode (dict codes end to end) vs the
// row engine (plain strings) must agree exactly on string-heavy plans. ---

func strSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "cat", Typ: sqltypes.String, Nullable: true},
		sqltypes.Column{Name: "val", Typ: sqltypes.Int64},
	)
}

// makeStrRows produces rows whose string column draws from cats with ~1/12
// NULLs mixed in.
func makeStrRows(n int, seed int64, cats []string) []sqltypes.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		cat := sqltypes.NewString(cats[rng.Intn(len(cats))])
		if rng.Intn(12) == 0 {
			cat = sqltypes.NewNull(sqltypes.String)
		}
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), cat, sqltypes.NewInt(int64(rng.Intn(1000)))}
	}
	return rows
}

// loadStrTable bulk-loads 90% into small compressed row groups (several
// dictionary-coded segments) and trickles the rest through the delta store, so
// batch scans emit a mix of coded and materialized string vectors.
func loadStrTable(t *testing.T, rows []sqltypes.Row) *table.Table {
	t.Helper()
	store := storage.NewStore(storage.DefaultBufferPoolBytes)
	opts := table.Options{RowGroupSize: 400, BulkLoadThreshold: 100, Columnstore: table.DefaultOptions().Columnstore}
	tb := table.New(store, "s", strSchema(), opts)
	split := len(rows) * 9 / 10
	if _, err := tb.BulkLoad(context.Background(), rows[:split]); err != nil {
		t.Fatal(err)
	}
	if err := tb.InsertMany(rows[split:]); err != nil {
		t.Fatal(err)
	}
	return tb
}

func rowModeRows(t *testing.T, op rowexec.Operator) map[string]int {
	t.Helper()
	rows, err := rowexec.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for _, r := range rows {
		key := ""
		for _, v := range r {
			key += v.String() + "|"
		}
		out[key]++
	}
	return out
}

var catAggs = []exec.AggSpec{
	{Kind: exec.CountStar, Name: "n"},
	{Kind: exec.Sum, Arg: expr.NewColRef(1, "val", sqltypes.Int64), Name: "s"},
	{Kind: exec.Min, Arg: expr.NewColRef(1, "val", sqltypes.Int64), Name: "lo"},
}

// Property: GROUP BY on a string column — grouping on raw dictionary codes
// with materialized delta rows mixed in — matches the row engine, including
// the NULL group.
func TestQuickStringGroupByParity(t *testing.T) {
	cats := []string{"north", "south", "east", "west", "axis", "blade", "crest", "dune", "ember", "frost"}
	tb := loadStrTable(t, makeStrRows(5000, 211, cats))

	bScan := NewScan(tb.Snapshot(), []int{1, 2})
	bScan.Stats = &ScanStats{}
	batch := gotRows(t, NewHashAgg(bScan, []int{0}, []string{"cat"}, catAggs))

	rScan := rowexec.NewScan(tb.Snapshot(), nil, []int{1, 2})
	rAgg := rowexec.NewHashAggregate(rScan, []expr.Expr{expr.NewColRef(0, "cat", sqltypes.String)}, []string{"cat"}, catAggs)
	want := rowModeRows(t, rAgg)

	if !mapsEqual(batch, want) {
		t.Fatalf("string GROUP BY diverged: batch %d keys, row %d keys", len(batch), len(want))
	}
	if bScan.Stats.StringColsCoded == 0 {
		t.Fatal("scan emitted no coded string vectors — late materialization inactive")
	}
}

// Property: DISTINCT over a string column (grouping with no aggregates)
// matches the row engine.
func TestQuickStringDistinctParity(t *testing.T) {
	cats := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	tb := loadStrTable(t, makeStrRows(3000, 223, cats))

	batch := gotRows(t, NewHashAgg(NewScan(tb.Snapshot(), []int{1}), []int{0}, []string{"cat"}, nil))
	rScan := rowexec.NewScan(tb.Snapshot(), nil, []int{1})
	want := rowModeRows(t, rowexec.NewHashAggregate(rScan, []expr.Expr{expr.NewColRef(0, "cat", sqltypes.String)}, []string{"cat"}, nil))
	if !mapsEqual(batch, want) {
		t.Fatalf("string DISTINCT diverged: batch %d keys, row %d keys", len(batch), len(want))
	}
}

// Property: joining on a string key matches the row engine for every join
// type. The two tables are loaded separately, so their dictionaries are
// distinct objects: the probe side crosses dictionaries (the memoized
// code-translation path), and delta rows exercise the materialized bridges.
func TestQuickStringJoinParity(t *testing.T) {
	probeCats := []string{"north", "south", "east", "west", "inland", "offshore"}
	buildCats := []string{"east", "west", "inland", "highland", "lowland"}
	ptb := loadStrTable(t, makeStrRows(1200, 307, probeCats))
	btb := loadStrTable(t, makeStrRows(400, 311, buildCats))

	for _, jt := range []exec.JoinType{exec.Inner, exec.LeftOuter, exec.RightOuter, exec.FullOuter, exec.LeftSemi, exec.LeftAnti} {
		pScan := NewScan(ptb.Snapshot(), []int{0, 1})
		pScan.Stats = &ScanStats{}
		bj, err := NewHashJoin(pScan, NewScan(btb.Snapshot(), []int{1, 2}), []int{1}, []int{0}, jt, nil)
		if err != nil {
			t.Fatal(err)
		}
		batch := gotRows(t, bj)
		if pScan.Stats.StringColsCoded == 0 {
			t.Fatalf("%v string join: probe scan emitted no coded string vectors — late materialization inactive", jt)
		}

		rj, err := rowexec.NewHashJoin(
			rowexec.NewScan(ptb.Snapshot(), nil, []int{0, 1}), rowexec.NewScan(btb.Snapshot(), nil, []int{1, 2}),
			[]expr.Expr{expr.NewColRef(1, "cat", sqltypes.String)},
			[]expr.Expr{expr.NewColRef(0, "cat", sqltypes.String)}, jt, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := rowModeRows(t, rj)

		if !mapsEqual(batch, want) {
			t.Fatalf("%v string join diverged: batch %d keys, row %d keys", jt, len(batch), len(want))
		}
	}
}

// Property: a same-table self join on the string key (both sides share one
// dictionary — the pure code-space hot path) matches the row engine.
func TestQuickStringSelfJoinParity(t *testing.T) {
	cats := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	tb := loadStrTable(t, makeStrRows(700, 401, cats))

	bj, err := NewHashJoin(
		NewScan(tb.Snapshot(), []int{0, 1}), NewScan(tb.Snapshot(), []int{1}),
		[]int{1}, []int{0}, exec.Inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := gotRows(t, bj)

	rj, err := rowexec.NewHashJoin(
		rowexec.NewScan(tb.Snapshot(), nil, []int{0, 1}), rowexec.NewScan(tb.Snapshot(), nil, []int{1}),
		[]expr.Expr{expr.NewColRef(1, "cat", sqltypes.String)},
		[]expr.Expr{expr.NewColRef(0, "cat", sqltypes.String)}, exec.Inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := rowModeRows(t, rj); !mapsEqual(batch, want) {
		t.Fatalf("self join diverged: batch %d keys, row %d keys", len(batch), len(want))
	}
}

// Property: string GROUP BY and string join stay correct when forced through
// the spill path (tiny memory grant), which round-trips dictionary codes
// through spill files.
func TestQuickStringSpillParity(t *testing.T) {
	cats := []string{"red", "orange", "yellow", "green", "blue", "indigo", "violet"}
	tb := loadStrTable(t, makeStrRows(2000, 503, cats))

	agg := NewHashAgg(NewScan(tb.Snapshot(), []int{1, 2}), []int{0}, []string{"cat"}, catAggs)
	agg.Tracker = NewTracker(1 << 10)
	agg.SpillStore = storage.NewStore(0)
	batch := gotRows(t, agg)
	if agg.Tracker.Spills() == 0 {
		t.Fatal("aggregation did not spill under a 1 KiB grant")
	}
	rScan := rowexec.NewScan(tb.Snapshot(), nil, []int{1, 2})
	want := rowModeRows(t, rowexec.NewHashAggregate(rScan, []expr.Expr{expr.NewColRef(0, "cat", sqltypes.String)}, []string{"cat"}, catAggs))
	if !mapsEqual(batch, want) {
		t.Fatalf("spilled string GROUP BY diverged: batch %d keys, row %d keys", len(batch), len(want))
	}

	btb := loadStrTable(t, makeStrRows(500, 509, cats))
	bj, err := NewHashJoin(
		NewScan(tb.Snapshot(), []int{0, 1}), NewScan(btb.Snapshot(), []int{1, 2}),
		[]int{1}, []int{0}, exec.FullOuter, nil)
	if err != nil {
		t.Fatal(err)
	}
	bj.Tracker = NewTracker(1 << 10)
	bj.SpillStore = storage.NewStore(0)
	jbatch := gotRows(t, bj)
	if bj.Tracker.Spills() == 0 {
		t.Fatal("join did not spill under a 1 KiB grant")
	}
	rj, err := rowexec.NewHashJoin(
		rowexec.NewScan(tb.Snapshot(), nil, []int{0, 1}), rowexec.NewScan(btb.Snapshot(), nil, []int{1, 2}),
		[]expr.Expr{expr.NewColRef(1, "cat", sqltypes.String)},
		[]expr.Expr{expr.NewColRef(0, "cat", sqltypes.String)}, exec.FullOuter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if jwant := rowModeRows(t, rj); !mapsEqual(jbatch, jwant) {
		t.Fatalf("spilled string join diverged: batch %d keys, row %d keys", len(jbatch), len(jwant))
	}
}

// --- Selection shapes: batch scan vs row engine, stats vs a full decode ---

// selSchema's columns each put one segment shape in front of the scan's
// selection: k runs in long runs with whole runs NULL (RLE with NULLs), v is
// random and NULL every 11th row (bit-packed with NULLs), cat draws from more
// values than the primary dictionary admits and is NULL every 13th row
// (local dictionaries with NULLs), f is a nullable scaled float, and tens
// holds multiples of ten, NULL every 19th row (a scaled integer encoding).
func selSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "k", Typ: sqltypes.Int64, Nullable: true},
		sqltypes.Column{Name: "v", Typ: sqltypes.Int64, Nullable: true},
		sqltypes.Column{Name: "cat", Typ: sqltypes.String, Nullable: true},
		sqltypes.Column{Name: "f", Typ: sqltypes.Float64, Nullable: true},
		sqltypes.Column{Name: "tens", Typ: sqltypes.Int64, Nullable: true},
	)
}

const selGroupRows = 500

// loadSelTable loads four 500-row groups, in id order, plus 150 delta rows,
// then deletes 80 % of group 0, 50 % of group 1, nothing of group 2, a
// seventh of group 3 and a fifth of the delta rows.
func loadSelTable(t *testing.T) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	var rows []sqltypes.Row
	for i := 0; i < 4*selGroupRows+150; i++ {
		k := sqltypes.NewInt(int64(i/40) % 17)
		if (i/40)%5 == 3 {
			k = sqltypes.NewNull(sqltypes.Int64)
		}
		v := sqltypes.NewInt(2 * int64(rng.Intn(1000))) // even values only
		if i%11 == 0 {
			v = sqltypes.NewNull(sqltypes.Int64)
		}
		cat := sqltypes.NewString(fmt.Sprintf("c%d", rng.Intn(200)))
		if i%13 == 0 {
			cat = sqltypes.NewNull(sqltypes.String)
		}
		f := sqltypes.NewFloat(float64(rng.Intn(10000)) / 100)
		if i%17 == 0 {
			f = sqltypes.NewNull(sqltypes.Float64)
		}
		tens := sqltypes.NewInt(10 * int64(i*37%300))
		if i%19 == 0 {
			tens = sqltypes.NewNull(sqltypes.Int64)
		}
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(i)), k, v, cat, f, tens})
	}
	cs := table.DefaultOptions().Columnstore
	cs.Reorder = false // keep id order, so runs and group membership are as generated
	cs.PrimaryDictCap = 40
	opts := table.Options{RowGroupSize: selGroupRows, BulkLoadThreshold: 100, Columnstore: cs}
	tb := table.New(storage.NewStore(storage.DefaultBufferPoolBytes), "sel", selSchema(), opts)
	if _, err := tb.BulkLoad(context.Background(), rows[:4*selGroupRows]); err != nil {
		t.Fatal(err)
	}
	if err := tb.InsertMany(rows[4*selGroupRows:]); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.DeleteWhere(func(r sqltypes.Row) bool {
		id := r[0].I
		switch id / selGroupRows {
		case 0:
			return id%5 != 0
		case 1:
			return id%2 == 0
		case 2:
			return false
		case 3:
			return id%7 == 3
		default:
			return id%5 == 1
		}
	}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// decodedColumn expands one column of a group whole — the eager decode the
// scan no longer does — into values, NULLs included.
func decodedColumn(t *testing.T, snap *table.Snapshot, g *colstore.RowGroup, col int) []sqltypes.Value {
	t.Helper()
	r, err := snap.OpenColumn(g, col)
	if err != nil {
		t.Fatal(err)
	}
	codes := r.DecodeRange(0, make([]uint64, r.Len()))
	vals := make([]sqltypes.Value, len(codes))
	for i, c := range codes {
		if r.IsNull(i) {
			vals[i] = sqltypes.NewNull(r.Col.Typ)
		} else {
			vals[i] = r.DecodeCode(c)
		}
	}
	return vals
}

// referenceCounts recomputes a scan's RowsAfterRange and RowsAfterBloom from
// fully decoded columns: per live row of every group that segment
// elimination keeps, the pushdowns and dictionary predicates, then the Bloom
// filters, each rejecting NULL.
func referenceCounts(t *testing.T, s *Scan) (afterRange, afterBloom int64) {
	t.Helper()
	holds := func(pred expr.Expr, v sqltypes.Value) bool {
		res := pred.Eval(sqltypes.Row{v})
		return !res.Null && res.I != 0
	}
	for _, g := range s.Snap.Groups {
		kept := true
		for _, p := range s.Pushdowns {
			kept = kept && g.Segs[p.Col].CanMatchRange(p.Lo, p.Hi)
		}
		if !kept {
			continue
		}
		cols := map[int][]sqltypes.Value{}
		val := func(col, i int) sqltypes.Value {
			if cols[col] == nil {
				cols[col] = decodedColumn(t, s.Snap, g, col)
			}
			return cols[col][i]
		}
		del := s.Snap.Deletes[g.ID]
	rows:
		for i := 0; i < g.Rows; i++ {
			if del != nil && del.Get(i) {
				continue
			}
			for _, p := range s.Pushdowns {
				if v := val(p.Col, i); v.Null || !inRange(v, p.Lo, p.Hi) {
					continue rows
				}
			}
			for _, dp := range s.DictPreds {
				if v := val(dp.Col, i); v.Null || !holds(dp.Pred, v) {
					continue rows
				}
			}
			afterRange++
			for _, bp := range s.Blooms {
				if v := val(bp.Col, i); v.Null || !bp.Target.F.MayContain(v) {
					continue rows
				}
			}
			afterBloom++
		}
	}
	return afterRange, afterBloom
}

// Property: over groups that are mostly deleted, groups whose first filter
// leaves nothing, groups with no filter at all, and RLE and bit-packed
// segments with NULLs and local dictionaries, and Bloom or exact bitmap
// filters on each numeric segment shape, the batch scan returns the row
// engine's rows (with the filter applied to them identically), at DOP 1 and
// 2, and counts the rows after pushdown and after the filter exactly as a
// full decode of every segment does.
func TestQuickSelectionShapes(t *testing.T) {
	tb := loadSelTable(t)
	snap := tb.Snapshot()
	var rle, packed, local, scaled bool
	for _, g := range snap.Groups {
		for _, m := range g.Segs {
			rle = rle || (m.Comp == colstore.CompRLE && m.NullCount > 0)
			packed = packed || (m.Comp == colstore.CompBitPack && m.NullCount > 0)
			local = local || (m.LocalDict != 0 && m.NullCount > 0)
			scaled = scaled || (m.Enc == colstore.EncNumeric && m.Numeric.Kind == encoding.NumScaled && m.NullCount > 0)
		}
	}
	if !rle || !packed || !local || !scaled {
		t.Fatalf("fixture lost a segment shape: RLE+NULL %v, bit-packed+NULL %v, local dictionary+NULL %v, scaled+NULL %v",
			rle, packed, local, scaled)
	}

	i64 := func(n int64) sqltypes.Value { return sqltypes.NewInt(n) }
	str := sqltypes.NewString
	cat := expr.NewColRef(0, "cat", sqltypes.String) // dictionary predicates see a one-column row
	bloomOf := func(vals ...sqltypes.Value) *bloom.Filter {
		f := bloom.New(len(vals), 10)
		for _, v := range vals {
			f.Add(v)
		}
		return f
	}
	var someV []sqltypes.Value
	for n := int64(0); n < 2000; n += 14 {
		someV = append(someV, i64(n))
	}
	exactOf := func(keys ...int64) *bloom.Filter {
		f := bloom.NewInts(keys, nil)
		if _, ok := f.Exact(); !ok {
			t.Fatalf("keys %v did not build an exact filter", keys)
		}
		return f
	}
	steps := func(lo, hi, step int64) []int64 {
		var keys []int64
		for n := lo; n <= hi; n += step {
			keys = append(keys, n)
		}
		return keys
	}
	cases := []struct {
		name      string
		pushdowns []Pushdown
		dictPreds []DictPred
		bloomCol  int
		bloom     *bloom.Filter
	}{
		{name: "no filter"},
		{name: "first filter leaves nothing",
			pushdowns: []Pushdown{{Col: 2, Lo: i64(1001), Hi: i64(1001)}}, // v is always even
			dictPreds: []DictPred{{Col: 3, Pred: expr.NewLike(cat, "c1%", false)}},
			bloomCol:  1, bloom: bloomOf(i64(3))},
		{name: "RLE pushdown, then dictionary predicate and Bloom on survivors",
			pushdowns: []Pushdown{{Col: 1, Lo: i64(3), Hi: i64(12)}},
			dictPreds: []DictPred{{Col: 3, Pred: expr.NewOr(expr.NewLike(cat, "c1%", false), expr.NewLike(cat, "%9", false))}},
			bloomCol:  2, bloom: bloomOf(someV...)},
		{name: "bit-packed pushdown with NULLs",
			pushdowns: []Pushdown{{Col: 2, Lo: i64(100), Hi: i64(900)}}},
		{name: "string range across local dictionaries",
			pushdowns: []Pushdown{{Col: 3, Lo: str("c150"), Hi: str("c199")}}},
		{name: "float pushdown, then RLE pushdown on survivors",
			pushdowns: []Pushdown{{Col: 4, Lo: sqltypes.NewFloat(10.5), Hi: sqltypes.NewFloat(60)}, {Col: 1, Lo: i64(0), Hi: i64(8)}}},
		{name: "Bloom on a dictionary column is the first filter",
			bloomCol: 3, bloom: bloomOf(str("c7"), str("c77"), str("c177"), str("c5"))},
		{name: "pushdown selecting only deleted rows of group 0",
			pushdowns: []Pushdown{{Col: 0, Lo: i64(1), Hi: i64(4)}}},
		{name: "exact filter on bit-packed ids: groups below, across and above the key range",
			bloomCol: 0, bloom: exactOf(steps(700, 1200, 3)...)},
		{name: "exact filter on bit-packed v with NULLs, segment base below the key range",
			bloomCol: 2, bloom: exactOf(steps(500, 1500, 6)...)},
		{name: "exact filter on bit-packed v with NULLs, segment base above the key range",
			bloomCol: 2, bloom: exactOf(-100, -2, 0, 4, 10, 98, 300)},
		{name: "exact filter on RLE k with NULLs, segment base below the key range",
			bloomCol: 1, bloom: exactOf(3, 5, 9, 16)},
		{name: "exact filter on RLE k with NULLs, segment base above the key range",
			pushdowns: []Pushdown{{Col: 2, Lo: i64(100), Hi: i64(1900)}},
			bloomCol:  1, bloom: exactOf(-4, -1, 0, 2)},
		{name: "exact filter on a scaled column with NULLs",
			bloomCol: 5, bloom: exactOf(steps(100, 2000, 30)...)},
		{name: "exact filter whose key range misses every group",
			bloomCol: 2, bloom: exactOf(5000, 5002, 5100)},
		{name: "exact filter on a float column",
			bloomCol: 4, bloom: exactOf(steps(0, 99, 1)...)},
	}
	all := []int{0, 1, 2, 3, 4, 5}

	// The exact cases must put NumOffset segments of both compressions on
	// both sides of a filter's lo.
	type side struct {
		comp  colstore.CompKind
		below bool
	}
	bases := map[side]bool{}
	for _, c := range cases {
		if c.bloom == nil {
			continue
		}
		bm, ok := c.bloom.Exact()
		if !ok {
			continue
		}
		for _, g := range snap.Groups {
			if m := g.Segs[c.bloomCol]; m.Enc == colstore.EncNumeric && m.Numeric.Kind == encoding.NumOffset && !m.Min.Null {
				bases[side{m.Comp, m.Numeric.Base < bm.Lo}] = true
			}
		}
	}
	for _, s := range []side{{colstore.CompBitPack, true}, {colstore.CompBitPack, false}, {colstore.CompRLE, true}, {colstore.CompRLE, false}} {
		if !bases[s] {
			t.Fatalf("no exact case has a %v segment with base below lo = %v", s.comp, s.below)
		}
	}
	for _, c := range cases {
		// Row engine: the pushdowns and dictionary predicates as a filter
		// over the table row; the Bloom filter applied to its output.
		var conj []expr.Expr
		for _, p := range c.pushdowns {
			typ := selSchema().Cols[p.Col].Typ
			ref := expr.NewColRef(p.Col, "c", typ)
			conj = append(conj, expr.NewCmp(expr.GE, ref, expr.NewConst(p.Lo)), expr.NewCmp(expr.LE, ref, expr.NewConst(p.Hi)))
		}
		for _, dp := range c.dictPreds {
			conj = append(conj, expr.Remap(dp.Pred, map[int]int{0: dp.Col}))
		}
		var filter expr.Expr
		if len(conj) > 0 {
			filter = expr.NewAnd(conj...)
		}
		rowRows, err := rowexec.Drain(rowexec.NewScan(snap, filter, all))
		if err != nil {
			t.Fatal(err)
		}
		if c.bloom != nil {
			kept := rowRows[:0]
			for _, r := range rowRows {
				if v := r[c.bloomCol]; !v.Null && c.bloom.MayContain(v) {
					kept = append(kept, r)
				}
			}
			rowRows = kept
		}
		want := rowMultiset(rowRows)

		for _, dop := range []int{1, 2} {
			scan := NewScan(snap, all)
			scan.Pushdowns, scan.DictPreds, scan.Parallel = c.pushdowns, c.dictPreds, dop
			if c.bloom != nil {
				scan.Blooms = []BloomPred{{Col: c.bloomCol, Target: &BloomTarget{F: c.bloom}}}
			}
			rows, err := Drain(scan)
			if err != nil {
				t.Fatal(err)
			}
			if d := multisetDiff(rowMultiset(rows), want); d != "" {
				t.Fatalf("%s, dop %d: batch scan differs from the row engine:\n%s", c.name, dop, d)
			}
			afterRange, afterBloom := referenceCounts(t, scan)
			if scan.Stats.RowsAfterRange != afterRange || scan.Stats.RowsAfterBloom != afterBloom {
				t.Fatalf("%s, dop %d: RowsAfterRange/RowsAfterBloom = %d/%d, full decode says %d/%d",
					c.name, dop, scan.Stats.RowsAfterRange, scan.Stats.RowsAfterBloom, afterRange, afterBloom)
			}
		}
	}
}

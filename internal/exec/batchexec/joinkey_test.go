package batchexec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"apollo/internal/encoding"
	"apollo/internal/exec"
	"apollo/internal/exec/rowexec"
	"apollo/internal/expr"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/vector"
)

// codedForm cuts rows into 64-row batches with every string column coded
// against dict, which must hold each string.
func codedForm(sch *sqltypes.Schema, rows []sqltypes.Row, dict *encoding.Dict) *batchList {
	l := &batchList{sch: sch}
	for start := 0; start < len(rows); start += 64 {
		chunk := rows[start:min(start+64, len(rows))]
		b := vector.NewBatch(sch, len(chunk))
		b.SetNumRows(len(chunk))
		for c, col := range sch.Cols {
			if col.Typ == sqltypes.String && codeAll(b.Vecs[c], chunk, c, dict, false) {
				continue
			}
			for i, r := range chunk {
				b.Vecs[c].SetValue(i, r[c])
			}
		}
		l.batches = append(l.batches, b)
	}
	return l
}

// Property: every join key shape gives the row engine's answer, for every
// join type, serial, at DOP 2 and through a grace-hash spill: 1-4 key
// columns mixing Int64, Date, Bool and String, NULL in every key column, a
// coded or a materialized build against coded (shared and foreign
// dictionary) and materialized probes, probe strings and integers the build
// lacks, an integer key too sparse for span ids, a float key, and keys whose
// widths pass the packed key budget.
func TestJoinKeyShapesParity(t *testing.T) {
	pool := []string{"amber", "basalt", "cobalt", "dune", "ember", "flint", "garnet", "heath", "iris", "jade", "kelp", "loam"}
	type path int
	const (
		dense   path = iota // packed keys index the table directly
		mapped              // packed keys through slotOf
		encoded             // exec.EncodeKey bytes in htGen
	)
	shapes := []struct {
		name    string
		types   []sqltypes.Type
		sparse  bool // integers drawn from 2^40, past the span limit
		keyBits uint // lowers packedKeyBits when set
		path    path
		span    bool // the first key column takes span ids
	}{
		{"int", []sqltypes.Type{sqltypes.Int64}, false, 0, dense, true},
		{"string", []sqltypes.Type{sqltypes.String}, false, 0, dense, false},
		{"date,bool", []sqltypes.Type{sqltypes.Date, sqltypes.Bool}, false, 0, dense, true},
		{"string,int,string", []sqltypes.Type{sqltypes.String, sqltypes.Int64, sqltypes.String}, false, 0, mapped, false},
		{"int,date,bool,string", []sqltypes.Type{sqltypes.Int64, sqltypes.Date, sqltypes.Bool, sqltypes.String}, false, 0, mapped, true},
		{"sparse int", []sqltypes.Type{sqltypes.Int64}, true, 0, dense, false},
		{"float,int", []sqltypes.Type{sqltypes.Float64, sqltypes.Int64}, false, 0, encoded, false},
		{"string,int past the key budget", []sqltypes.Type{sqltypes.String, sqltypes.Int64}, false, 8, encoded, false},
	}
	joinTypes := []exec.JoinType{exec.Inner, exec.LeftOuter, exec.RightOuter, exec.FullOuter, exec.LeftSemi, exec.LeftAnti}
	for si, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			if sh.keyBits != 0 {
				defer func(old uint) { packedKeyBits = old }(packedKeyBits)
				packedKeyBits = sh.keyBits
			}
			cols := make([]sqltypes.Column, 0, len(sh.types)+1)
			keys := make([]int, len(sh.types))
			keyExprs := make([]expr.Expr, len(sh.types))
			for c, typ := range sh.types {
				name := fmt.Sprintf("k%d", c)
				cols = append(cols, sqltypes.Column{Name: name, Typ: typ, Nullable: true})
				keys[c] = c
				keyExprs[c] = expr.NewColRef(c, name, typ)
			}
			cols = append(cols, sqltypes.Column{Name: "v", Typ: sqltypes.Int64})
			sch := sqltypes.NewSchema(cols...)

			rng := rand.New(rand.NewSource(int64(2000 + si)))
			gen := func(n int, probe bool) []sqltypes.Row {
				rows := make([]sqltypes.Row, n)
				for i := range rows {
					r := make(sqltypes.Row, 0, len(cols))
					for _, typ := range sh.types {
						var val sqltypes.Value
						switch typ {
						case sqltypes.Int64:
							// A fifth of the probe values lie past the build's.
							k := int64(rng.Intn(60))
							if probe {
								k = int64(rng.Intn(75))
							}
							val = sqltypes.NewInt(k)
							if sh.sparse {
								val = sqltypes.NewInt(k << 34)
							}
						case sqltypes.Date:
							val = sqltypes.NewDate(int64(9000 + rng.Intn(12)))
						case sqltypes.Bool:
							val = sqltypes.NewBool(rng.Intn(2) == 0)
						case sqltypes.Float64:
							val = sqltypes.NewFloat(float64(rng.Intn(12)) / 2)
						default:
							val = sqltypes.NewString(pool[rng.Intn(len(pool))])
							if probe && rng.Intn(8) == 0 {
								val = sqltypes.NewString(fmt.Sprintf("off-%d", rng.Intn(3)))
							}
						}
						if rng.Intn(10) == 0 {
							val = sqltypes.NewNull(typ)
						}
						r = append(r, val)
					}
					rows[i] = append(r, sqltypes.NewInt(int64(i)))
				}
				return rows
			}
			buildRows, probeRows := gen(300, false), gen(1200, true)

			dictA := encoding.NewDict()
			for _, s := range pool {
				dictA.Add(s)
			}
			builds := map[string]func() *batchList{
				"coded build":        func() *batchList { return codedForm(sch, buildRows, dictA) },
				"materialized build": func() *batchList { return mixedForms(sch, buildRows, dictA, encoding.NewDict()) },
			}
			probe := func() *batchList { return mixedForms(sch, probeRows, dictA, encoding.NewDict()) }

			for _, jt := range joinTypes {
				rj, err := rowexec.NewHashJoin(&rowexec.Values{Rows: probeRows, Sch: sch}, &rowexec.Values{Rows: buildRows, Sch: sch}, keyExprs, keyExprs, jt, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := rowModeRows(t, rj)
				for bname, build := range builds {
					for _, run := range []string{"serial", "dop=2", "spill"} {
						label := fmt.Sprintf("%v %s %s", jt, bname, run)
						j, err := NewHashJoin(probe(), build(), keys, keys, jt, nil)
						if err != nil {
							t.Fatal(err)
						}
						switch run {
						case "dop=2":
							j.Parallel = 2
						case "spill":
							j.Tracker, j.SpillStore = NewTracker(1<<10), storage.NewStore(0)
						}
						if err := j.Open(context.Background()); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if run == "serial" {
							c := j.core
							switch {
							case (c.cols == nil) != (sh.path == encoded):
								t.Errorf("%s: packed = %v, want path %d", label, c.cols != nil, sh.path)
							case c.cols != nil && c.dense != (sh.path == dense):
								t.Errorf("%s: dense = %v, want path %d", label, c.dense, sh.path)
							case c.cols != nil && c.cols[0].span != sh.span:
								t.Errorf("%s: span ids = %v, want %v", label, c.cols[0].span, sh.span)
							}
						}
						var got []sqltypes.Row
						for {
							b, err := j.Next()
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if b == nil {
								break
							}
							for i := 0; i < b.Len(); i++ {
								got = append(got, b.Row(i))
							}
						}
						j.Close()
						if run == "spill" && j.Tracker.Spills() == 0 {
							t.Errorf("%s: no spill", label)
						}
						if g := rowMultiset(got); !mapsEqual(g, want) {
							t.Errorf("%s: %d rows, row engine %d\n%s", label, len(got), len(want), multisetDiff(g, want))
						}
					}
				}
			}
		})
	}
}

// Property: the partition hash is consistent with Equal, whatever a value's
// form: an integer and an integral float, a string materialized and coded in
// either of two dictionaries, and NULLs of any type hash alike.
func TestKeyHashAgreesWithEqual(t *testing.T) {
	pairs := [][2]sqltypes.Value{
		{sqltypes.NewInt(42), sqltypes.NewInt(42)},
		{sqltypes.NewInt(42), sqltypes.NewFloat(42.0)},
		{sqltypes.NewInt(1e15), sqltypes.NewFloat(1e15)},
		{sqltypes.NewInt(1 << 53), sqltypes.NewFloat(1 << 53)},
		{sqltypes.NewString("x"), sqltypes.NewString("x")},
		{sqltypes.NewNull(sqltypes.Int64), sqltypes.NewNull(sqltypes.String)},
		{sqltypes.NewDate(5), sqltypes.NewDate(5)},
	}
	one := func(v sqltypes.Value, form int) uint64 {
		vec := vector.NewVector(v.Typ, 1)
		vec.SetValue(0, v)
		if v.Typ == sqltypes.String && !v.Null && form > 0 {
			d := encoding.NewDict()
			for i := 0; i < form; i++ {
				d.Add(fmt.Sprintf("pad-%d", i)) // the two dictionaries code "x" differently
			}
			codeAll(vec, []sqltypes.Row{{v}}, 0, d, true)
		}
		var kh keyHasher
		return kh.hash([]*vector.Vector{vec}, []int{0}, 1)[0]
	}
	for _, p := range pairs {
		if !sqltypes.Equal(p[0], p[1]) {
			t.Fatalf("precondition: %v and %v must be Equal", p[0], p[1])
		}
		for form := 0; form < 3; form++ {
			if a, b := one(p[0], 0), one(p[1], form); a != b {
				t.Errorf("hash(%v) = %x, hash(%v) in form %d = %x", p[0], a, p[1], form, b)
			}
		}
	}
	if one(sqltypes.NewInt(1), 0) == one(sqltypes.NewInt(2), 0) {
		t.Error("suspicious collision for 1 vs 2")
	}
}

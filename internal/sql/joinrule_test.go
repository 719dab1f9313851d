package sql

import (
	"context"
	"fmt"
	"testing"

	"apollo/internal/metrics"
	"apollo/internal/plan"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
)

// A join without an equality key runs in row mode under every mode, so each
// shape answers in all three modes, and alike.
func TestKeylessJoinsEveryMode(t *testing.T) {
	queries := []struct {
		sql  string
		want int64
	}{
		{"SELECT COUNT(*) FROM a, b", 6},
		{"SELECT COUNT(*) FROM a, b WHERE a.i < b.j", 3},
		{"SELECT COUNT(*) FROM a JOIN b ON a.i + 0 = b.j", 2},
		{"SELECT COUNT(*) FROM a LEFT JOIN b ON a.i < b.j", 4},
	}
	for _, mode := range []plan.Mode{plan.Mode2014, plan.Mode2012, plan.ModeRow} {
		e := newEngine(t, mode)
		mustExec(t, e, "CREATE TABLE a (i BIGINT)")
		mustExec(t, e, "CREATE TABLE b (j BIGINT)")
		mustExec(t, e, "INSERT INTO a VALUES (1), (2), (3)")
		mustExec(t, e, "INSERT INTO b VALUES (2), (3)")
		for _, q := range queries {
			res, err := e.Exec(q.sql)
			if err != nil {
				t.Fatalf("mode %v: %s: %v", mode, q.sql, err)
			}
			if got := res.Rows[0][0].I; got != q.want {
				t.Errorf("mode %v: %s = %d, want %d", mode, q.sql, got, q.want)
			}
		}
	}
}

// An integral float joins the equal integer by one rule,
// sqltypes.IntegralFloat (|f| <= 2^53): the hash join agrees with `=`
// evaluated as a filter at 10^15 and at 2^53, in both engines, at DOP 1 and
// 2, in memory and spilled, with the exact bitmap filter on the probe scan.
func TestIntegralFloatJoinParity(t *testing.T) {
	for _, base := range []int64{1e15, 1 << 53} {
		t.Run(fmt.Sprint(base), func(t *testing.T) {
			var ints, floats []sqltypes.Row
			for _, k := range []int64{base - 2, base - 1, base} {
				ints = append(ints, sqltypes.Row{sqltypes.NewInt(k)})
				floats = append(floats, sqltypes.Row{sqltypes.NewFloat(float64(k))})
			}
			// Fillers the build lacks, an integral float below the key span
			// and, at 10^15, a fraction inside it.
			for k := int64(0); k < 2000; k++ {
				floats = append(floats, sqltypes.Row{sqltypes.NewFloat(float64(base - 10 - k))})
			}
			if base == 1e15 {
				floats = append(floats, sqltypes.Row{sqltypes.NewFloat(float64(base) - 0.5)})
			}
			const want = 3
			hashJoin := "SELECT COUNT(*) FROM b JOIN a ON b.f = a.i"
			filter := "SELECT COUNT(*) FROM b JOIN a ON b.f + 0 = a.i" // no key: a row-mode filter
			for _, mode := range []plan.Mode{plan.Mode2014, plan.ModeRow} {
				for _, dop := range []int{1, 2} {
					for _, spill := range []bool{false, true} {
						label := fmt.Sprintf("mode=%v dop=%d spill=%v", mode, dop, spill)
						e := newEngine(t, mode)
						e.PlanOpts.Parallel, e.PlanOpts.FixedDOP = dop, true
						if spill {
							e.PlanOpts.MemoryBudget, e.PlanOpts.SpillStore = 1, storage.NewStore(0)
						}
						mustExec(t, e, "CREATE TABLE a (i BIGINT)")
						mustExec(t, e, "CREATE TABLE b (f DOUBLE)")
						for name, rows := range map[string][]sqltypes.Row{"a": ints, "b": floats} {
							tb, err := e.Cat.Get(name)
							if err != nil {
								t.Fatal(err)
							}
							if _, err := tb.BulkLoad(context.Background(), rows); err != nil {
								t.Fatal(err)
							}
						}
						before := metrics.Default.Snapshot()
						res := mustExec(t, e, hashJoin)
						after := metrics.Default.Snapshot()
						if got := res.Rows[0][0].I; got != want {
							t.Errorf("%s: %s = %d, want %d", label, hashJoin, got, want)
						}
						if got := mustExec(t, e, filter).Rows[0][0].I; got != want {
							t.Errorf("%s: %s = %d, want %d", label, filter, got, want)
						}
						if mode == plan.ModeRow {
							continue
						}
						exact := `apollo_hashjoin_bitmap_filters_total{kind="exact"}`
						if after[exact] == before[exact] {
							t.Errorf("%s: the join published no exact bitmap filter", label)
						}
						spilled := after["apollo_exec_spills_total"] > before["apollo_exec_spills_total"]
						if spilled != spill {
							t.Errorf("%s: spilled = %v", label, spilled)
						}
					}
				}
			}
		})
	}
}

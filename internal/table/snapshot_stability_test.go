package table

import (
	"math/rand"
	"slices"
	"testing"

	"apollo/internal/delta"
	"apollo/internal/sqltypes"
)

// testClock is a single-goroutine Clock: a horizon below MaxTS stands for a
// pinned reader, which makes autocommit deletes leave tombstones.
type testClock struct{ stable, horizon, next uint64 }

func (c *testClock) StableTS() uint64         { return c.stable }
func (c *testClock) Horizon() uint64          { return c.horizon }
func (c *testClock) AllocCommitTS() uint64    { c.next++; return c.next }
func (c *testClock) FinishCommitTS(ts uint64) { c.stable = max(c.stable, ts) }

func deltaStrings(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	slices.Sort(out)
	return out
}

// TestSnapshotSurvivesDeltaRemoval cuts a snapshot, removes delta rows
// physically through each removal path, and inserts a row: the snapshot
// still yields exactly the rows it was cut with. Snapshots hold references
// to the stores' rows, so this holds only while no row is modified in place.
func TestSnapshotSurvivesDeltaRemoval(t *testing.T) {
	const txnID = delta.TxnBit | 7
	deleteIDsBelow := func(t *testing.T, tb *Table, n int64) {
		if got, err := tb.DeleteWhere(func(r sqltypes.Row) bool { return r[0].I < n }); got != int(n) || err != nil {
			t.Fatalf("delete: %d, %v", got, err)
		}
	}
	cases := []struct {
		name   string
		gone   int // delta rows mutate removes physically
		mutate func(t *testing.T, tb *Table, clk *testClock)
	}{
		{"autocommit delete", 1, func(t *testing.T, tb *Table, _ *testClock) { deleteIDsBelow(t, tb, 1) }},
		{"purged tombstone", 1, func(t *testing.T, tb *Table, clk *testClock) {
			clk.horizon = clk.stable // a pinned reader: the delete tombstones
			deleteIDsBelow(t, tb, 1)
			clk.horizon = delta.MaxTS
			if _, err := tb.MoveOnce(); err != nil { // settles: purges the tombstone
				t.Fatal(err)
			}
		}},
		{"aborted insert", 1, func(_ *testing.T, tb *Table, _ *testClock) { tb.AbortTxn(txnID) }},
		// 70 removed slots against 21 live ones: the store compacts.
		{"compaction", 70, func(t *testing.T, tb *Table, _ *testClock) { deleteIDsBelow(t, tb, 70) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb := newTable(t) // RowGroupSize 100: every row stays in the open store
			clk := &testClock{stable: 10, next: 10, horizon: delta.MaxTS}
			tb.SetClock(clk)
			for i := int64(0); i < 90; i++ {
				if _, err := tb.Insert(mkRow(i)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tb.InsertTxn(TxnRef{ID: txnID, SnapTS: clk.stable}, mkRow(500)); err != nil {
				t.Fatal(err)
			}
			snap := tb.SnapshotView(ReadView{Self: txnID})
			want := deltaStrings(snap.Delta)
			if len(want) != 91 {
				t.Fatalf("snapshot holds %d delta rows, want 91", len(want))
			}

			c.mutate(t, tb, clk)
			if _, err := tb.Insert(mkRow(1000)); err != nil {
				t.Fatal(err)
			}
			if got := tb.Stat().DeltaRows; got != 91-c.gone+1 {
				t.Fatalf("store holds %d rows, want %d", got, 91-c.gone+1)
			}
			if got := deltaStrings(snap.Delta); !slices.Equal(got, want) {
				t.Fatalf("snapshot changed:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestReturnedRowsAreCopies mutates rows handed out by FetchRow and Sample;
// later reads still see the stored values.
func TestReturnedRowsAreCopies(t *testing.T) {
	tb := newTable(t)
	var locs []Locator
	for i := int64(0); i < 10; i++ {
		loc, err := tb.Insert(mkRow(i))
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
	}
	want := deltaStrings(tb.Snapshot().Delta)
	clobber := func(r sqltypes.Row) { r[0], r[1] = sqltypes.NewInt(-1), sqltypes.NewString("clobbered") }
	for _, loc := range locs {
		row, ok := tb.FetchRow(loc)
		if !ok {
			t.Fatalf("FetchRow(%v) missed", loc)
		}
		clobber(row)
	}
	for _, row := range tb.Sample(10, rand.New(rand.NewSource(1))) {
		clobber(row)
	}
	if got := deltaStrings(tb.Snapshot().Delta); !slices.Equal(got, want) {
		t.Fatalf("store rows changed through returned rows:\n got %v\nwant %v", got, want)
	}
}

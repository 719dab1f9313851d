package apollo

import (
	"context"
	"reflect"
	"testing"
)

func preparedDB(t *testing.T) *DB {
	t.Helper()
	db := Open(DefaultConfig())
	t.Cleanup(db.Close)
	db.MustExec(`CREATE TABLE events (id BIGINT, kind VARCHAR, amount DOUBLE, sold DATE)`)
	db.MustExec(`INSERT INTO events VALUES
		(1, 'click', 1.5, DATE '2013-06-01'),
		(2, 'view',  2.5, DATE '2013-06-02'),
		(3, 'click', 3.5, DATE '2013-06-03'),
		(4, 'buy',  10.0, DATE '2013-06-04')`)
	return db
}

func TestPreparedSelectReuse(t *testing.T) {
	db := preparedDB(t)
	st, err := db.Prepare(`SELECT id, amount FROM events WHERE kind = ? AND amount > ? ORDER BY id`)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if got := st.NumParams(); got != 2 {
		t.Fatalf("NumParams = %d, want 2", got)
	}
	res, err := st.Exec(NewString("click"), NewFloat(1.0))
	if err != nil {
		t.Fatalf("Exec 1: %v", err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].I != 1 || res.Rows[1][0].I != 3 {
		t.Fatalf("Exec 1 rows = %v", res.Rows)
	}
	// Different arguments on the same plan.
	res, err = st.Exec(NewString("buy"), NewFloat(5.0))
	if err != nil {
		t.Fatalf("Exec 2: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 4 {
		t.Fatalf("Exec 2 rows = %v", res.Rows)
	}
	// Reuse must see rows inserted after Prepare (snapshot rebind).
	db.MustExec(`INSERT INTO events VALUES (5, 'click', 9.0, DATE '2013-06-05')`)
	res, err = st.Exec(NewString("click"), NewFloat(1.0))
	if err != nil {
		t.Fatalf("Exec 3: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("Exec 3 rows = %v, want 3 rows including the new insert", res.Rows)
	}
}

func TestPreparedDateParam(t *testing.T) {
	db := preparedDB(t)
	st, err := db.Prepare(`SELECT COUNT(*) FROM events WHERE sold >= ?`)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	// A string argument against a DATE column must parse as a date.
	res, err := st.Exec(NewString("2013-06-03"))
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if res.Rows[0][0].I != 2 {
		t.Fatalf("count = %v, want 2", res.Rows[0][0])
	}
	// Prepared aggregation must not serve a compile-time metadata answer.
	db.MustExec(`INSERT INTO events VALUES (6, 'view', 1.0, DATE '2013-06-09')`)
	res, err = st.Exec(NewString("2013-06-03"))
	if err != nil {
		t.Fatalf("Exec 2: %v", err)
	}
	if res.Rows[0][0].I != 3 {
		t.Fatalf("count after insert = %v, want 3", res.Rows[0][0])
	}
}

func TestPreparedDML(t *testing.T) {
	db := preparedDB(t)
	ins, err := db.Prepare(`INSERT INTO events VALUES (?, ?, ?, ?)`)
	if err != nil {
		t.Fatalf("Prepare INSERT: %v", err)
	}
	for i := int64(10); i < 13; i++ {
		res, err := ins.Exec(NewInt(i), NewString("bulk"), NewFloat(float64(i)), NewString("2013-07-01"))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if res.Affected != 1 {
			t.Fatalf("insert %d affected = %d", i, res.Affected)
		}
	}
	upd, err := db.Prepare(`UPDATE events SET amount = ? WHERE kind = ?`)
	if err != nil {
		t.Fatalf("Prepare UPDATE: %v", err)
	}
	res, err := upd.Exec(NewFloat(0.5), NewString("bulk"))
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if res.Affected != 3 {
		t.Fatalf("update affected = %d, want 3", res.Affected)
	}
	del, err := db.Prepare(`DELETE FROM events WHERE id = ?`)
	if err != nil {
		t.Fatalf("Prepare DELETE: %v", err)
	}
	if res, err = del.Exec(NewInt(11)); err != nil || res.Affected != 1 {
		t.Fatalf("delete: affected=%d err=%v", res.Affected, err)
	}
	q := db.MustExec(`SELECT COUNT(*), SUM(amount) FROM events WHERE kind = 'bulk'`)
	if q.Rows[0][0].I != 2 || q.Rows[0][1].F != 1.0 {
		t.Fatalf("final state = %v", q.Rows)
	}
}

func TestPreparedInTransaction(t *testing.T) {
	db := preparedDB(t)
	st, err := db.Prepare(`INSERT INTO events VALUES (?, 'txn', 1.0, DATE '2013-08-01')`)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	sess := db.Session()
	defer sess.Close()
	ctx := context.Background()
	if _, err := sess.Exec(`BEGIN`); err != nil {
		t.Fatalf("BEGIN: %v", err)
	}
	if _, err := sess.ExecPrepared(ctx, st, NewInt(100)); err != nil {
		t.Fatalf("ExecPrepared: %v", err)
	}
	// Uncommitted: invisible to autocommit readers.
	if r := db.MustExec(`SELECT COUNT(*) FROM events WHERE kind = 'txn'`); r.Rows[0][0].I != 0 {
		t.Fatalf("uncommitted insert visible: %v", r.Rows)
	}
	if _, err := sess.Exec(`COMMIT`); err != nil {
		t.Fatalf("COMMIT: %v", err)
	}
	if r := db.MustExec(`SELECT COUNT(*) FROM events WHERE kind = 'txn'`); r.Rows[0][0].I != 1 {
		t.Fatalf("committed insert missing: %v", r.Rows)
	}
}

func TestPreparedErrors(t *testing.T) {
	db := preparedDB(t)
	if _, err := db.Exec(`SELECT * FROM events WHERE id = ?`); err == nil {
		t.Fatal("placeholder through Exec should error")
	}
	if _, err := db.Prepare(`SELECT * FROM nosuch WHERE id = ?`); err == nil {
		t.Fatal("Prepare against a missing table should error")
	}
	st, err := db.Prepare(`SELECT * FROM events WHERE id = ?`)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if _, err := st.Exec(); err == nil {
		t.Fatal("wrong argument count should error")
	}
}

// collectSink is a RowSink that keeps a copy of every streamed row.
type collectSink struct {
	cols []string
	rows []Row
}

func (s *collectSink) Schema(sc *Schema) error {
	for _, c := range sc.Cols {
		s.cols = append(s.cols, c.Name)
	}
	return nil
}

func (s *collectSink) Row(r Row) error {
	s.rows = append(s.rows, append(Row(nil), r...))
	return nil
}

// stmtOutcome is what one execution of a statement shows its caller,
// whichever path it took.
type stmtOutcome struct {
	cols     []string
	rows     []Row
	affected int
	message  string
	err      string
}

// TestPreparedParityAcrossPaths runs each statement through every statement
// path — ad-hoc and prepared, materialized and streamed, in autocommit and
// inside a transaction — and requires the same rows, row count, message,
// error and final table state from all of them. Each path gets a fresh
// database; prepared paths prepare before a row is inserted, so a reused
// prepared SELECT must see that row, and every statement runs twice.
func TestPreparedParityAcrossPaths(t *testing.T) {
	cases := []struct {
		name     string
		adhoc    string // the statement with its arguments written as literals
		prepared string // the same statement with ? placeholders; "" = not preparable
		args     []Value
		metaOnly bool // ad-hoc execution answers from segment metadata
		rows     int  // result rows; the SELECT's include the row inserted after Prepare
	}{
		{name: "select", adhoc: `SELECT id, amount FROM events WHERE kind = 'click' AND amount > 1.0 ORDER BY id`,
			prepared: `SELECT id, amount FROM events WHERE kind = ? AND amount > ? ORDER BY id`,
			args:     []Value{NewString("click"), NewFloat(1.0)}, rows: 3},
		{name: "count_star", adhoc: `SELECT COUNT(*) FROM events`, prepared: `SELECT COUNT(*) FROM events`, metaOnly: true, rows: 1},
		{name: "insert", adhoc: `INSERT INTO events VALUES (7, 'buy', 4.5, DATE '2013-06-07')`,
			prepared: `INSERT INTO events VALUES (?, ?, ?, ?)`,
			args:     []Value{NewInt(7), NewString("buy"), NewFloat(4.5), NewString("2013-06-07")}},
		{name: "update", adhoc: `UPDATE events SET amount = 0.5 WHERE kind = 'click'`,
			prepared: `UPDATE events SET amount = ? WHERE kind = ?`,
			args:     []Value{NewFloat(0.5), NewString("click")}},
		{name: "delete", adhoc: `DELETE FROM events WHERE amount > 3.0`,
			prepared: `DELETE FROM events WHERE amount > ?`,
			args:     []Value{NewFloat(3.0)}},
		{name: "explain", adhoc: `EXPLAIN SELECT kind, SUM(amount) FROM events GROUP BY kind`},
	}
	type env struct {
		db   *DB
		sess *Session
		st   *Stmt
	}
	paths := []struct {
		name     string
		inTx     bool
		prepared bool
		exec     func(ctx context.Context, e env, adhoc string, args []Value, sink *collectSink) (*Result, error)
	}{
		{"DB.Exec", false, false, func(ctx context.Context, e env, q string, _ []Value, _ *collectSink) (*Result, error) {
			return e.db.ExecContext(ctx, q)
		}},
		{"Stmt.Exec", false, true, func(ctx context.Context, e env, _ string, args []Value, _ *collectSink) (*Result, error) {
			return e.st.ExecContext(ctx, args...)
		}},
		{"Session.StreamContext", false, false, func(ctx context.Context, e env, q string, _ []Value, sink *collectSink) (*Result, error) {
			return e.sess.StreamContext(ctx, q, sink)
		}},
		{"Session.StreamPrepared", false, true, func(ctx context.Context, e env, _ string, args []Value, sink *collectSink) (*Result, error) {
			return e.sess.StreamPrepared(ctx, e.st, sink, args...)
		}},
		{"Tx/Session.ExecContext", true, false, func(ctx context.Context, e env, q string, _ []Value, _ *collectSink) (*Result, error) {
			return e.sess.ExecContext(ctx, q)
		}},
		{"Tx/Session.ExecPrepared", true, true, func(ctx context.Context, e env, _ string, args []Value, _ *collectSink) (*Result, error) {
			return e.sess.ExecPrepared(ctx, e.st, args...)
		}},
		{"Tx/Session.StreamContext", true, false, func(ctx context.Context, e env, q string, _ []Value, sink *collectSink) (*Result, error) {
			return e.sess.StreamContext(ctx, q, sink)
		}},
		{"Tx/Session.StreamPrepared", true, true, func(ctx context.Context, e env, _ string, args []Value, sink *collectSink) (*Result, error) {
			return e.sess.StreamPrepared(ctx, e.st, sink, args...)
		}},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want []stmtOutcome
			var wantState []Row
			wantFrom := ""
			for _, p := range paths {
				if p.prepared && c.prepared == "" {
					continue
				}
				db := preparedDB(t)
				e := env{db: db, sess: db.Session()}
				if p.prepared {
					st, err := db.Prepare(c.prepared)
					if err != nil {
						t.Fatalf("%s: Prepare: %v", p.name, err)
					}
					e.st = st
				}
				db.MustExec(`INSERT INTO events VALUES (5, 'click', 9.0, DATE '2013-06-05')`)
				if p.inTx {
					if _, err := e.sess.Exec(`BEGIN`); err != nil {
						t.Fatalf("%s: BEGIN: %v", p.name, err)
					}
				}
				var got []stmtOutcome
				for run := 0; run < 2; run++ {
					sink := &collectSink{}
					res, err := p.exec(ctx, e, c.adhoc, c.args, sink)
					var o stmtOutcome
					if err != nil {
						o.err = err.Error()
					} else {
						o.cols, o.rows, o.affected, o.message = res.Columns, res.Rows, res.Affected, res.Message
						if sink.cols != nil {
							o.cols, o.rows = sink.cols, sink.rows
						}
						if wantMeta := c.metaOnly && !p.prepared; res.MetadataOnly != wantMeta {
							t.Errorf("%s run %d: MetadataOnly = %v, want %v", p.name, run, res.MetadataOnly, wantMeta)
						}
					}
					got = append(got, o)
				}
				if p.inTx {
					if _, err := e.sess.Exec(`COMMIT`); err != nil {
						t.Fatalf("%s: COMMIT: %v", p.name, err)
					}
				}
				e.sess.Close()
				state := db.MustExec(`SELECT id, kind, amount, sold FROM events ORDER BY id`).Rows
				if want == nil {
					if len(got[0].rows) != c.rows || got[0].err != "" {
						t.Fatalf("%s: %+v, want %d rows", p.name, got[0], c.rows)
					}
					want, wantState, wantFrom = got, state, p.name
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s disagrees with %s:\ngot  %+v\nwant %+v", p.name, wantFrom, got, want)
				}
				if !reflect.DeepEqual(state, wantState) {
					t.Errorf("%s leaves a different table than %s:\ngot  %v\nwant %v", p.name, wantFrom, state, wantState)
				}
			}
		})
	}
}

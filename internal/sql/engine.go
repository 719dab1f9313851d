package sql

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"apollo/internal/catalog"
	"apollo/internal/degrade"
	"apollo/internal/expr"
	"apollo/internal/plan"
	"apollo/internal/sqltypes"
	"apollo/internal/stats"
	"apollo/internal/storage"
	"apollo/internal/table"
	"apollo/internal/txn"
)

// Engine executes SQL statements against a catalog. Query planning options
// (mode, parallelism, memory grant) come from PlanOpts; DDL options for new
// tables start from TableOpts and are overridden by WITH clauses.
type Engine struct {
	Cat       *catalog.Catalog
	PlanOpts  plan.Options
	TableOpts table.Options
	// Txns, when set, enables transactions: sessions can BEGIN/COMMIT/
	// ROLLBACK, and autocommit SELECTs pin a consistent cross-table snapshot.
	Txns *txn.Manager
	// State, when set, gates writes behind the DB's durability health
	// (degrade.State.Gate): DML, DDL, COPY and index maintenance fail fast
	// with a typed error while the DB is read-only (disk full) or poisoned
	// (failed fsync), and every write error is fed back so storage failures
	// flip the state. Reads are never gated.
	State *degrade.State

	statsOnce  sync.Once
	statsCache *plan.StatsCache
	closed     atomic.Bool
}

// SetClosed marks the engine closed: every subsequent statement fails fast
// with txn.ErrClosed. DB.Close sets this before tearing down the transaction
// manager so statements racing Close get a typed error, not a panic.
func (e *Engine) SetClosed() { e.closed.Store(true) }

// Closed reports whether SetClosed has been called.
func (e *Engine) Closed() bool { return e.closed.Load() }

// Result is the outcome of one statement.
type Result struct {
	Schema   *sqltypes.Schema // non-nil for SELECT/EXPLAIN
	Rows     []sqltypes.Row   // SELECT results
	Affected int              // DML row count
	Message  string           // DDL/EXPLAIN text
	Compiled *plan.Compiled   // SELECT: the compiled query (stats, explain)
}

// Exec parses and executes one statement under a background context.
func (e *Engine) Exec(src string) (*Result, error) {
	return e.ExecContext(context.Background(), src)
}

// ExecContext parses and executes one statement under ctx: SELECTs honor
// cancellation and deadlines at batch granularity through the whole operator
// tree; every statement checks the context before starting work.
func (e *Engine) ExecContext(ctx context.Context, src string) (*Result, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.ExecStmtContext(ctx, st)
}

// ExecStmt executes a parsed statement under a background context.
func (e *Engine) ExecStmt(st Statement) (*Result, error) {
	return e.ExecStmtContext(context.Background(), st)
}

// ExecStmtContext executes a parsed statement under ctx (autocommit; use a
// Session for multi-statement transactions).
func (e *Engine) ExecStmtContext(ctx context.Context, st Statement) (*Result, error) {
	return e.execStmt(ctx, st, nil, nil, nil)
}

// execStmt is the one statement dispatcher. Every statement runs through it:
// ad-hoc or prepared (p non-nil: st is p's statement, executed with p's bound
// parameters and, for a SELECT, its reusable plan), materialized or streamed
// (sink non-nil: a SELECT's rows go to sink instead of the Result), in
// autocommit or inside transaction tx. Reads run ungated; every other
// statement is a write and passes the degrade gate.
func (e *Engine) execStmt(ctx context.Context, st Statement, tx *txn.Txn, p *Prepared, sink RowSink) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.closed.Load() {
		return nil, txn.ErrClosed
	}
	switch x := st.(type) {
	case *Begin, *Commit, *Rollback:
		return nil, fmt.Errorf("sql: transaction control requires a session (Engine.NewSession)")
	case *Select:
		return e.runSelect(ctx, x, tx, p, sink)
	case *Explain:
		return e.explain(ctx, x, tx)
	case *ShowStats:
		return e.showStats(x)
	}
	var res *Result
	err := e.State.Gate(func() (err error) {
		res, err = e.write(ctx, st, tx, p)
		return err
	})
	return res, err
}

// write executes one write statement behind the degrade gate.
func (e *Engine) write(ctx context.Context, st Statement, tx *txn.Txn, p *Prepared) (*Result, error) {
	if tx != nil {
		switch st.(type) {
		case *CreateTable, *DropTable, *Reorganize, *Rebuild:
			return nil, fmt.Errorf("sql: DDL and index maintenance are not allowed inside a transaction")
		case *Copy:
			// Bulk loads publish compressed row groups, which carry no
			// per-row version state to roll back.
			return nil, fmt.Errorf("sql: COPY is not allowed inside a transaction")
		}
	}
	var bag *ParamBag
	if p != nil {
		bag = p.bag
	}
	switch x := st.(type) {
	case *CreateTable:
		return e.createTable(x)
	case *DropTable:
		if err := e.Cat.Drop(x.Name); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("dropped table %s", x.Name)}, nil
	case *Copy:
		return e.copyFrom(ctx, x)
	case *Insert:
		return e.insert(ctx, x, tx, bag)
	case *Delete:
		return e.delete(x, tx, bag)
	case *Update:
		return e.update(x, tx, bag)
	case *Reorganize:
		t, err := e.Cat.Get(x.Table)
		if err != nil {
			return nil, err
		}
		if err := t.FlushOpen(); err != nil {
			return nil, err
		}
		if _, err := t.MergeSmallGroups(); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("reorganized %s", x.Table)}, nil
	case *Rebuild:
		t, err := e.Cat.Get(x.Table)
		if err != nil {
			return nil, err
		}
		if err := t.Rebuild(); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("rebuilt %s", x.Table)}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", st)
	}
}

// showStats renders the optimizer's statistics snapshot for one table, one
// row per column, refreshing the cached snapshot first if it has gone stale.
func (e *Engine) showStats(x *ShowStats) (*Result, error) {
	ts, t, err := e.TableStats(x.Table)
	if err != nil {
		return nil, err
	}
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "column", Typ: sqltypes.String},
		sqltypes.Column{Name: "type", Typ: sqltypes.String},
		sqltypes.Column{Name: "min", Typ: sqltypes.String, Nullable: true},
		sqltypes.Column{Name: "max", Typ: sqltypes.String, Nullable: true},
		sqltypes.Column{Name: "nulls", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "ndv", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "hist_buckets", Typ: sqltypes.Int64},
	)
	bound := func(v sqltypes.Value) sqltypes.Value {
		if v.Null {
			return sqltypes.NewNull(sqltypes.String)
		}
		return sqltypes.NewString(v.String())
	}
	rows := make([]sqltypes.Row, 0, len(ts.Cols))
	for i, cs := range ts.Cols {
		buckets := 0
		if cs.Hist != nil {
			buckets = len(cs.Hist.Bounds)
		}
		rows = append(rows, sqltypes.Row{
			sqltypes.NewString(t.Schema.Cols[i].Name),
			sqltypes.NewString(t.Schema.Cols[i].Typ.String()),
			bound(cs.Min),
			bound(cs.Max),
			sqltypes.NewInt(int64(cs.NullCount)),
			sqltypes.NewInt(int64(cs.DistinctEst)),
			sqltypes.NewInt(int64(buckets)),
		})
	}
	return &Result{
		Schema: schema,
		Rows:   rows,
		Message: fmt.Sprintf("statistics for %s: rows=%d sampled=%d version=%d",
			x.Table, ts.Rows, ts.SampledRows, ts.Version),
	}, nil
}

// TableStats returns the optimizer's statistics snapshot for the named
// table, collecting or refreshing it through the engine's stats cache.
func (e *Engine) TableStats(name string) (*stats.TableStats, *table.Table, error) {
	t, err := e.Cat.Get(name)
	if err != nil {
		return nil, nil, err
	}
	e.statsOnce.Do(func() { e.statsCache = plan.NewStatsCache() })
	return e.statsCache.Stats(t), t, nil
}

// compile binds and plans a SELECT against view. A non-nil bag compiles a
// prepared statement's reusable plan: its scans record rebind hooks and the
// metadata-only shortcuts are disabled (they bake compile-time data into the
// plan).
func (e *Engine) compile(s *Select, view table.ReadView, bag *ParamBag) (*plan.Compiled, error) {
	b := &Binder{Tables: e.Cat, Params: bag}
	node, err := b.BindSelect(s)
	if err != nil {
		return nil, err
	}
	e.statsOnce.Do(func() { e.statsCache = plan.NewStatsCache() })
	opts := e.PlanOpts
	if opts.StatsCache == nil {
		opts.StatsCache = e.statsCache
	}
	opts.View = view
	opts.Reusable = bag != nil
	return plan.Compile(node, opts)
}

// queryView resolves the read view a SELECT runs under. Inside a transaction
// it is the transaction's snapshot (own writes visible); in autocommit with a
// transaction manager present, the current stable timestamp is pinned for the
// duration so all scans share one cross-table snapshot and the settling
// horizon cannot pass it mid-query. The release func is a no-op when nothing
// was pinned.
func (e *Engine) queryView(tx *txn.Txn) (table.ReadView, func()) {
	if tx != nil {
		return tx.View(), func() {}
	}
	if e.Txns != nil {
		asOf, release := e.Txns.PinRead()
		return table.ReadView{AsOf: asOf}, release
	}
	return table.ReadView{}, func() {}
}

// selectPlan resolves the read view a SELECT runs under and returns its
// plan for that view: p's reusable plan re-pointed at it, or a fresh compile
// for an ad-hoc statement. The caller runs release when the query is done.
func (e *Engine) selectPlan(s *Select, tx *txn.Txn, p *Prepared) (c *plan.Compiled, release func(), err error) {
	view, release := e.queryView(tx)
	if p != nil {
		p.compiled.Rebind(view)
		return p.compiled, release, nil
	}
	if c, err = e.compile(s, view, nil); err != nil {
		release()
		return nil, nil, err
	}
	return c, release, nil
}

// runSelect executes a SELECT, materializing its rows in the Result or, with
// a sink, streaming them (the serving path's chunked result encoding; the
// Result then carries the schema and compiled stats but no rows).
func (e *Engine) runSelect(ctx context.Context, s *Select, tx *txn.Txn, p *Prepared, sink RowSink) (*Result, error) {
	c, release, err := e.selectPlan(s, tx, p)
	if err != nil {
		return nil, err
	}
	defer release()
	res := &Result{Schema: c.Schema, Compiled: c}
	if sink == nil {
		res.Rows, err = c.RunContext(ctx)
	} else if err = sink.Schema(c.Schema); err == nil {
		err = c.StreamContext(ctx, sink.Row)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RowSink receives one streamed result set: Schema once, then Row per result
// row in order. Row arguments may alias executor storage and are valid only
// for the duration of the call; implementations must copy what they keep. An
// error from either method aborts the query.
type RowSink interface {
	Schema(*sqltypes.Schema) error
	Row(sqltypes.Row) error
}

// explain renders a SELECT's plan. EXPLAIN ANALYZE first executes the query
// (discarding its rows) and annotates the operator tree with the
// per-operator counters that run produced.
func (e *Engine) explain(ctx context.Context, x *Explain, tx *txn.Txn) (*Result, error) {
	c, release, err := e.selectPlan(x.Query, tx, nil)
	if err != nil {
		return nil, err
	}
	defer release()
	if !x.Analyze {
		return &Result{Schema: c.Schema, Message: c.Explain(), Compiled: c}, nil
	}
	if _, err := c.RunContext(ctx); err != nil {
		return nil, err
	}
	return &Result{Schema: c.Schema, Message: c.ExplainAnalyze(), Compiled: c}, nil
}

func (e *Engine) createTable(ct *CreateTable) (*Result, error) {
	opts := e.TableOpts
	if opts.Columnstore.PrimaryDictCap == 0 {
		opts = table.DefaultOptions()
	}
	if ct.RowGroupSize > 0 {
		opts.RowGroupSize = ct.RowGroupSize
	}
	if ct.BulkThreshold > 0 {
		opts.BulkLoadThreshold = ct.BulkThreshold
	}
	if ct.Archive {
		opts.Columnstore.Tier = storage.Archival
	}
	if ct.NoReorder {
		opts.Columnstore.Reorder = false
	}
	if _, err := e.Cat.Create(ct.Name, sqltypes.NewSchema(ct.Cols...), opts); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("created table %s", ct.Name)}, nil
}

// evalLiteralRow evaluates an INSERT row of literal (or parameter)
// expressions. Placeholders take their target column's type.
func (e *Engine) evalLiteralRow(t *table.Table, exprs []Expr, bag *ParamBag) (sqltypes.Row, error) {
	if len(exprs) != t.Schema.Len() {
		return nil, fmt.Errorf("sql: INSERT has %d values, table %s has %d columns", len(exprs), t.Name, t.Schema.Len())
	}
	b := &Binder{Tables: e.Cat, Params: bag}
	empty := &scope{}
	row := make(sqltypes.Row, len(exprs))
	for i, ast := range exprs {
		bound, err := b.bindExpr(ast, empty)
		if err != nil {
			return nil, err
		}
		if prm, ok := bound.(*expr.Param); ok {
			prm.SetType(t.Schema.Cols[i].Typ)
		}
		v := bound.Eval(nil)
		row[i] = coerceLit(v, t.Schema.Cols[i].Typ)
	}
	return row, nil
}

// dmlErr passes a DML error through, counting write-write conflicts so the
// retry rate shows up in the engine metrics.
func (e *Engine) dmlErr(err error) error {
	if err != nil && e.Txns != nil && errors.Is(err, table.ErrWriteConflict) {
		e.Txns.ConflictSeen()
	}
	return err
}

func (e *Engine) insert(ctx context.Context, ins *Insert, tx *txn.Txn, bag *ParamBag) (*Result, error) {
	t, err := e.Cat.Get(ins.Table)
	if err != nil {
		return nil, err
	}
	rows := make([]sqltypes.Row, len(ins.Rows))
	for i, rx := range ins.Rows {
		row, err := e.evalLiteralRow(t, rx, bag)
		if err != nil {
			return nil, err
		}
		rows[i] = row
	}
	if tx != nil {
		// Transactional inserts always trickle through the delta store: the
		// bulk path publishes compressed row groups directly, which have no
		// per-row version state to roll back. Every row is checked before
		// the first is written, so a bad row leaves nothing for COMMIT.
		for _, row := range rows {
			if err := t.CheckRow(row); err != nil {
				return nil, err
			}
		}
		if err := tx.Touch(t); err != nil {
			return nil, err
		}
		for _, row := range rows {
			if _, err := t.InsertTxn(tx.Ref(), row); err != nil {
				return nil, e.dmlErr(err)
			}
		}
		return &Result{Affected: len(rows)}, nil
	}
	if _, err := t.BulkLoad(ctx, rows); err != nil {
		return nil, err
	}
	return &Result{Affected: len(rows)}, nil
}

// bindRowPred binds a WHERE clause against a table's schema and returns a
// row predicate for the DML path.
func (e *Engine) bindRowPred(t *table.Table, where Expr, bag *ParamBag) (func(sqltypes.Row) bool, error) {
	if where == nil {
		return func(sqltypes.Row) bool { return true }, nil
	}
	b := &Binder{Tables: e.Cat, Params: bag}
	bound, err := b.bindExpr(where, tableScope(t.Name, t))
	if err != nil {
		return nil, err
	}
	return func(r sqltypes.Row) bool {
		v := bound.Eval(r)
		return !v.Null && v.I != 0
	}, nil
}

func (e *Engine) delete(d *Delete, tx *txn.Txn, bag *ParamBag) (*Result, error) {
	t, err := e.Cat.Get(d.Table)
	if err != nil {
		return nil, err
	}
	pred, err := e.bindRowPred(t, d.Where, bag)
	if err != nil {
		return nil, err
	}
	var n int
	if tx != nil {
		if err := tx.Touch(t); err != nil {
			return nil, err
		}
		n, err = t.DeleteWhereTxn(tx.Ref(), pred)
	} else {
		n, err = t.DeleteWhere(pred)
	}
	if err != nil {
		return nil, e.dmlErr(err)
	}
	return &Result{Affected: n}, nil
}

func (e *Engine) update(u *Update, tx *txn.Txn, bag *ParamBag) (*Result, error) {
	t, err := e.Cat.Get(u.Table)
	if err != nil {
		return nil, err
	}
	pred, err := e.bindRowPred(t, u.Where, bag)
	if err != nil {
		return nil, err
	}
	cols, bound, err := e.bindSetClauses(t, u, bag)
	if err != nil {
		return nil, err
	}
	set := func(r sqltypes.Row) sqltypes.Row {
		vals := make([]sqltypes.Value, len(cols))
		for i := range cols {
			vals[i] = bound[i](r)
		}
		for i, c := range cols {
			r[c] = vals[i]
		}
		return r
	}
	var n int
	if tx != nil {
		if err := tx.Touch(t); err != nil {
			return nil, err
		}
		n, err = t.UpdateWhereTxn(tx.Ref(), pred, set)
	} else {
		n, err = t.UpdateWhere(pred, set)
	}
	if err != nil {
		return nil, e.dmlErr(err)
	}
	return &Result{Affected: n}, nil
}

package sql

import (
	"context"
	"fmt"
	"sync"

	"apollo/internal/expr"
	"apollo/internal/plan"
	"apollo/internal/sqltypes"
	"apollo/internal/table"
	"apollo/internal/txn"
)

// Prepared is a parameterized statement compiled once and executed many
// times. SELECTs keep their compiled plan and re-point its scans at a fresh
// snapshot per execution (plan.Compiled.Rebind); DML re-binds its (trivial)
// row predicates per execution against the shared parameter cells. A
// Prepared serializes its executions internally, so it may be shared, but
// the usual discipline is one per session.
type Prepared struct {
	e   *Engine
	src string
	st  Statement
	bag *ParamBag

	compiled *plan.Compiled // SELECT only

	mu sync.Mutex // one execution at a time: parameter cells and operator state
}

// Prepare parses, binds, and (for SELECTs) compiles a statement that may
// contain `?` placeholders. Binding errors surface here, not at execution.
func (e *Engine) Prepare(src string) (*Prepared, error) {
	if e.closed.Load() {
		return nil, txn.ErrClosed
	}
	st, n, err := ParseWithParams(src)
	if err != nil {
		return nil, err
	}
	p := &Prepared{e: e, src: src, st: st, bag: NewParamBag(n)}
	switch x := st.(type) {
	case *Select:
		// Reusable compilation: each execution re-points it (see compile).
		c, err := e.compile(x, table.ReadView{}, p.bag)
		if err != nil {
			return nil, err
		}
		p.compiled = c
	case *Insert:
		// Dry bind: validates arity/expressions and fixes each placeholder's
		// type from its target column, so BindArgs coerces correctly.
		t, err := e.Cat.Get(x.Table)
		if err != nil {
			return nil, err
		}
		for _, rx := range x.Rows {
			if _, err := e.evalLiteralRow(t, rx, p.bag); err != nil {
				return nil, err
			}
		}
	case *Delete:
		t, err := e.Cat.Get(x.Table)
		if err != nil {
			return nil, err
		}
		if _, err := e.bindRowPred(t, x.Where, p.bag); err != nil {
			return nil, err
		}
	case *Update:
		t, err := e.Cat.Get(x.Table)
		if err != nil {
			return nil, err
		}
		if _, err := e.bindRowPred(t, x.Where, p.bag); err != nil {
			return nil, err
		}
		if _, _, err := e.bindSetClauses(t, x, p.bag); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("sql: cannot prepare %T (SELECT, INSERT, UPDATE, DELETE only)", st)
	}
	return p, nil
}

// NumParams returns the placeholder count.
func (p *Prepared) NumParams() int { return p.bag.Len() }

// Source returns the statement text the Prepared was built from.
func (p *Prepared) Source() string { return p.src }

// Exec executes the prepared statement in autocommit under a background
// context.
func (p *Prepared) Exec(args ...sqltypes.Value) (*Result, error) {
	return p.ExecContext(context.Background(), args...)
}

// ExecContext executes the prepared statement in autocommit.
func (p *Prepared) ExecContext(ctx context.Context, args ...sqltypes.Value) (*Result, error) {
	return p.run(ctx, nil, nil, args)
}

// StreamContext executes the prepared statement in autocommit, streaming a
// SELECT's rows to sink (see Session.StreamPrepared).
func (p *Prepared) StreamContext(ctx context.Context, sink RowSink, args ...sqltypes.Value) (*Result, error) {
	return p.run(ctx, nil, sink, args)
}

// run binds args and executes the statement through the engine's
// dispatcher. Executions are serialized: the parameter cells and the
// compiled operator tree hold per-execution state.
func (p *Prepared) run(ctx context.Context, tx *txn.Txn, sink RowSink, args []sqltypes.Value) (*Result, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.bag.BindArgs(args); err != nil {
		return nil, err
	}
	return p.e.execStmt(ctx, p.st, tx, p, sink)
}

// bindSetClauses binds an UPDATE's SET expressions, fixing placeholder types
// from their target columns. Returned cols are schema indexes; setters
// evaluate and coerce one assignment each.
func (e *Engine) bindSetClauses(t *table.Table, u *Update, bag *ParamBag) ([]int, []func(sqltypes.Row) sqltypes.Value, error) {
	b := &Binder{Tables: e.Cat, Params: bag}
	sc := tableScope(u.Table, t)
	cols := make([]int, len(u.Cols))
	bound := make([]func(sqltypes.Row) sqltypes.Value, len(u.Cols))
	for i, name := range u.Cols {
		idx := t.Schema.ColIndex(name)
		if idx < 0 {
			return nil, nil, fmt.Errorf("sql: unknown column %q in UPDATE", name)
		}
		cols[i] = idx
		be, err := b.bindExpr(u.Exprs[i], sc)
		if err != nil {
			return nil, nil, err
		}
		typ := t.Schema.Cols[idx].Typ
		if prm, ok := be.(*expr.Param); ok {
			prm.SetType(typ)
		}
		bound[i] = func(r sqltypes.Row) sqltypes.Value { return coerceLit(be.Eval(r), typ) }
	}
	return cols, bound, nil
}

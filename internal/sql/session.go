package sql

import (
	"context"
	"errors"
	"fmt"

	"apollo/internal/sqltypes"
	"apollo/internal/table"
	"apollo/internal/txn"
)

// Session is one client's statement stream: it owns at most one open
// transaction and routes statements through it. Sessions are cheap; create
// one per connection (cssql keeps one for the whole REPL). A Session is not
// safe for concurrent use — that is the usual one-statement-at-a-time
// connection discipline — but distinct sessions are independent.
type Session struct {
	e  *Engine
	tx *txn.Txn
}

// NewSession creates a session. Transactions require Engine.Txns; without a
// manager the session still works in autocommit.
func (e *Engine) NewSession() *Session { return &Session{e: e} }

// InTxn reports whether a transaction is open.
func (s *Session) InTxn() bool { return s.tx != nil && !s.tx.Done() }

// DoneErr reports why the session's transaction ended abnormally (ErrClosed
// when DB.Close aborted it), or nil.
func (s *Session) DoneErr() error {
	if s.tx != nil {
		return s.tx.Err()
	}
	return nil
}

// Exec parses and executes one statement under a background context.
func (s *Session) Exec(src string) (*Result, error) {
	return s.ExecContext(context.Background(), src)
}

// ExecContext parses and executes one statement under ctx, inside the open
// transaction if any. BEGIN/COMMIT/ROLLBACK manage the transaction. A failed
// DML statement does not auto-rollback: the session keeps the transaction so
// the client can decide — except on ErrWriteConflict, where the transaction
// is already poisoned and is rolled back before the error is returned (the
// client retries from BEGIN).
func (s *Session) ExecContext(ctx context.Context, src string) (*Result, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return s.ExecStmtContext(ctx, st)
}

// ExecStmtContext executes a parsed statement (see ExecContext).
func (s *Session) ExecStmtContext(ctx context.Context, st Statement) (*Result, error) {
	return s.run(ctx, st, nil, nil, nil)
}

// StreamContext parses and executes one statement; a SELECT's rows are
// delivered to sink as they are produced instead of materialized (the
// returned Result then has no Rows). Any other statement executes exactly as
// in ExecStmtContext and sink is not called.
func (s *Session) StreamContext(ctx context.Context, src string, sink RowSink) (*Result, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, st, nil, sink, nil)
}

// ExecPrepared executes a prepared statement inside the session's open
// transaction, if any (same transaction semantics as ExecStmtContext).
func (s *Session) ExecPrepared(ctx context.Context, p *Prepared, args ...sqltypes.Value) (*Result, error) {
	return s.run(ctx, p.st, p, nil, args)
}

// StreamPrepared is ExecPrepared with a row sink: a prepared SELECT's rows
// are delivered to sink as they are produced (the returned Result has no
// Rows); any other prepared statement executes as ExecPrepared and sink is
// never called. This is the serving path for parameterized queries.
func (s *Session) StreamPrepared(ctx context.Context, p *Prepared, sink RowSink, args ...sqltypes.Value) (*Result, error) {
	return s.run(ctx, p.st, p, sink, args)
}

// run is the one body behind every session entry point: transaction
// control, then the statement (ad-hoc, or prepared p bound to args) through
// the engine's dispatcher inside the open transaction, then the session's
// conflict policy.
func (s *Session) run(ctx context.Context, st Statement, p *Prepared, sink RowSink, args []sqltypes.Value) (*Result, error) {
	switch st.(type) {
	case *Begin:
		return s.begin(ctx)
	case *Commit:
		return s.commit(ctx)
	case *Rollback:
		return s.rollback(ctx)
	}
	if p != nil && p.e != s.e {
		return nil, fmt.Errorf("sql: prepared statement belongs to a different database")
	}
	// A transaction aborted from under the session (DB close) is detected
	// here rather than deep in a statement, for a clear error.
	if s.tx != nil && s.tx.Done() {
		s.tx = nil
		return nil, txn.ErrClosed
	}
	var res *Result
	var err error
	if p != nil {
		res, err = p.run(ctx, s.tx, sink, args)
	} else {
		res, err = s.e.execStmt(ctx, st, s.tx, nil, sink)
	}
	// On ErrWriteConflict the transaction is already poisoned
	// (first-writer-wins discarded the losing write), so release its
	// snapshot now — the client retries from BEGIN.
	if err != nil && s.tx != nil && errors.Is(err, table.ErrWriteConflict) {
		s.tx.Rollback(ctx)
		s.tx = nil
	}
	return res, err
}

func (s *Session) begin(ctx context.Context) (*Result, error) {
	if s.e.Txns == nil {
		return nil, fmt.Errorf("sql: this database does not support transactions")
	}
	if s.InTxn() {
		return nil, fmt.Errorf("sql: transaction already open (COMMIT or ROLLBACK first)")
	}
	tx, err := s.e.Txns.Begin(ctx)
	if err != nil {
		return nil, err
	}
	s.tx = tx
	return &Result{Message: "begin"}, nil
}

func (s *Session) commit(ctx context.Context) (*Result, error) {
	if s.tx == nil {
		return nil, fmt.Errorf("sql: no transaction open")
	}
	tx := s.tx
	s.tx = nil
	// COMMIT takes the gate's observe-only half: a read-only transaction
	// commits without touching the WAL, so it may finish while the DB is
	// degraded, but a commit that fails at the durability boundary (ENOSPC
	// on the WAL, poisoned writer) must flip the DB's health, not just this
	// session's.
	if err := s.e.State.Report(tx.Commit(ctx)); err != nil {
		return nil, err
	}
	return &Result{Message: "commit"}, nil
}

func (s *Session) rollback(ctx context.Context) (*Result, error) {
	if s.tx == nil {
		return nil, fmt.Errorf("sql: no transaction open")
	}
	tx := s.tx
	s.tx = nil
	if err := tx.Rollback(ctx); err != nil {
		return nil, err
	}
	return &Result{Message: "rollback"}, nil
}

// Close rolls back any open transaction (session teardown).
func (s *Session) Close(ctx context.Context) {
	if s.tx != nil {
		s.tx.Rollback(ctx)
		s.tx = nil
	}
}

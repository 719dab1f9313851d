package batchexec

import (
	"context"
	"errors"
	"testing"

	"apollo/internal/qerr"
	"apollo/internal/sqltypes"
	"apollo/internal/vector"
)

// panicOp blows up on the second Next call — after producing a batch, like a
// mid-query operator bug would.
type panicOp struct {
	sch   *sqltypes.Schema
	calls int
}

func (p *panicOp) Schema() *sqltypes.Schema   { return p.sch }
func (p *panicOp) Open(context.Context) error { return nil }
func (p *panicOp) Close() error               { return nil }
func (p *panicOp) Next() (*vector.Batch, error) {
	p.calls++
	if p.calls > 1 {
		panic("operator bug")
	}
	b := vector.NewBatch(p.sch, 1)
	b.AppendRow(sqltypes.Row{sqltypes.NewInt(1)})
	return b, nil
}

func TestGuardContainsPanic(t *testing.T) {
	sch := sqltypes.NewSchema(sqltypes.Column{Name: "x", Typ: sqltypes.Int64})
	g := NewGuard(&panicOp{sch: sch}, "boom")
	_, err := DrainContext(context.Background(), g)
	if err == nil {
		t.Fatal("panic was not converted to an error")
	}
	var qe *qerr.QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("not a QueryError: %v", err)
	}
	if !qe.Panicked || qe.Op != "boom" {
		t.Fatalf("panic attribution wrong: %+v", qe)
	}
}

func TestGuardObservesCancellation(t *testing.T) {
	sch := sqltypes.NewSchema(sqltypes.Column{Name: "x", Typ: sqltypes.Int64})
	rows := make([]sqltypes.Row, 10)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i))}
	}
	g := NewGuard(&Values{Rows: rows, Sch: sch}, "values")
	ctx, cancel := context.WithCancel(context.Background())
	if err := g.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Next(); err != nil {
		t.Fatalf("first batch should flow: %v", err)
	}
	cancel()
	if _, err := g.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

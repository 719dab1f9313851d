package catalog

import (
	"fmt"
	"testing"
	"time"

	"apollo/internal/sched"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/table"
)

func schema() *sqltypes.Schema {
	return sqltypes.NewSchema(sqltypes.Column{Name: "a", Typ: sqltypes.Int64})
}

func TestCreateGetDrop(t *testing.T) {
	c := New(storage.NewStore(0))
	tb, err := c.Create("t1", schema(), table.DefaultOptions())
	if err != nil || tb == nil {
		t.Fatal(err)
	}
	got, err := c.Get("t1")
	if err != nil || got != tb {
		t.Fatal("Get returned wrong table")
	}
	if _, err := c.Create("t1", schema(), table.DefaultOptions()); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if err := c.Drop("t1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("t1"); err == nil {
		t.Fatal("dropped table still visible")
	}
	if err := c.Drop("t1"); err == nil {
		t.Fatal("double drop accepted")
	}
}

func TestCreateValidation(t *testing.T) {
	c := New(storage.NewStore(0))
	if _, err := c.Create("empty", sqltypes.NewSchema(), table.DefaultOptions()); err == nil {
		t.Fatal("empty schema accepted")
	}
	dup := sqltypes.NewSchema(
		sqltypes.Column{Name: "a", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "a", Typ: sqltypes.String},
	)
	if _, err := c.Create("dup", dup, table.DefaultOptions()); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

func TestListSorted(t *testing.T) {
	c := New(storage.NewStore(0))
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := c.Create(n, schema(), table.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	got := c.List()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v", got)
		}
	}
}

// The OnTable hook sees the tables already there and every later create;
// dropping a table removes the mover job the hook registered for it.
func TestOnTableAndDropManageMoverJobs(t *testing.T) {
	c := New(storage.NewStore(0))
	if _, err := c.Create("old", schema(), table.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	s := sched.New(new(sched.Manual).Now)
	defer s.Stop()
	var added []string
	c.OnTable(func(tb *table.Table) {
		added = append(added, tb.Name)
		s.Add(tb.MoverJob(time.Hour))
	})
	tb, err := c.Create("new", schema(), table.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(added) != "[old new]" || !tb.Health().MoverRunning {
		t.Fatalf("hook saw %v; mover running %v", added, tb.Health().MoverRunning)
	}
	if err := c.Drop("new"); err != nil {
		t.Fatal(err)
	}
	if tb.Health().MoverRunning {
		t.Fatal("dropped table's mover job still registered")
	}
}

package apollo

import (
	"context"
	"strings"
	"testing"
)

// TestWriteGateMatrix drives every write entry point into a degraded
// database — read-only after a WAL append hits ENOSPC, poisoned after a
// failed WAL fsync — and requires the typed rejection both from the write
// that discovers the failure and from the next one, which the gate refuses
// before it runs. In both modes ad-hoc, prepared and streamed SELECTs keep
// serving and a SELECT-only transaction still commits.
func TestWriteGateMatrix(t *testing.T) {
	ctx := context.Background()
	modes := []struct {
		name   string
		faults WALFaults
		typed  func(error) bool
	}{
		{"read_only", WALFaults{AppendNoSpaceAt: 1}, IsReadOnlyError},
		{"poisoned", WALFaults{FailSyncAt: 1}, IsPoisonedError},
	}
	exec := func(q string) func(*DB, *Table) error {
		return func(db *DB, _ *Table) error {
			_, err := db.Exec(q)
			return err
		}
	}
	writes := []struct {
		name  string
		write func(*DB, *Table) error
	}{
		{"insert", exec(`INSERT INTO g VALUES (100, 'x')`)},
		{"update", exec(`UPDATE g SET v = 'y' WHERE id < 3`)},
		{"delete", exec(`DELETE FROM g WHERE id < 3`)},
		{"create_table", exec(`CREATE TABLE h (a BIGINT)`)},
		{"prepared_dml", func(db *DB, _ *Table) error {
			st, err := db.Prepare(`INSERT INTO g VALUES (?, ?)`)
			if err != nil {
				return err
			}
			_, err = st.Exec(NewInt(101), NewString("p"))
			return err
		}},
		{"stream_dml", func(db *DB, _ *Table) error {
			sess := db.Session()
			defer sess.Close()
			_, err := sess.StreamContext(ctx, `INSERT INTO g VALUES (102, 's')`, &collectSink{})
			return err
		}},
		{"db_load", func(db *DB, _ *Table) error {
			_, err := db.Load(ctx, LoadOptions{Table: "g", Reader: strings.NewReader("200,a\n201,b\n")})
			return err
		}},
		{"table_insert", func(_ *DB, tb *Table) error { return tb.Insert(Row{NewInt(300), NewString("t")}) }},
		{"table_bulkload", func(_ *DB, tb *Table) error {
			return tb.BulkLoad([]Row{{NewInt(400), NewString("b")}, {NewInt(401), NewString("b")}})
		}},
		{"table_reorganize", func(_ *DB, tb *Table) error { return tb.Reorganize() }},
		{"checkpoint", func(db *DB, _ *Table) error {
			_, err := db.Checkpoint()
			return err
		}},
	}
	for _, m := range modes {
		for _, w := range writes {
			t.Run(m.name+"/"+w.name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.TupleMoverInterval = 0
				cfg.FsyncPolicy = "always"
				db, err := OpenDir(t.TempDir(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				// Rows in the open delta store give every write, REORGANIZE
				// included, something to log.
				db.MustExec(`CREATE TABLE g (id BIGINT, v VARCHAR)`)
				db.MustExec(`INSERT INTO g VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
				tb, err := db.Table("g")
				if err != nil {
					t.Fatal(err)
				}

				db.InjectWALFaults(m.faults)
				if err := w.write(db, tb); !m.typed(err) {
					t.Fatalf("discovering write: got %v, want a %s rejection", err, m.name)
				}
				if err := w.write(db, tb); !m.typed(err) {
					t.Fatalf("gated write: got %v, want a %s rejection", err, m.name)
				}

				if _, err := db.Query(`SELECT COUNT(*) FROM g WHERE id > 0`); err != nil {
					t.Errorf("ad-hoc SELECT: %v", err)
				}
				st, err := db.Prepare(`SELECT id FROM g WHERE id > ?`)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := st.Exec(NewInt(0)); err != nil {
					t.Errorf("prepared SELECT: %v", err)
				}
				sess := db.Session()
				defer sess.Close()
				if _, err := sess.StreamContext(ctx, `SELECT id FROM g`, &collectSink{}); err != nil {
					t.Errorf("streamed SELECT: %v", err)
				}
				if _, err := sess.StreamPrepared(ctx, st, &collectSink{}, NewInt(0)); err != nil {
					t.Errorf("streamed prepared SELECT: %v", err)
				}
				tx, err := db.Begin(ctx)
				if err != nil {
					t.Fatalf("Begin: %v", err)
				}
				if _, err := tx.Query(`SELECT id FROM g`); err != nil {
					t.Errorf("SELECT in a transaction: %v", err)
				}
				if err := tx.Commit(ctx); err != nil {
					t.Errorf("SELECT-only commit: %v", err)
				}
			})
		}
	}
}

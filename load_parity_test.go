package apollo

import (
	"bytes"
	"cmp"
	"context"
	"encoding/csv"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"apollo/internal/load"
	"apollo/internal/sqltypes"
)

// --- load/insert parity property test ---
//
// Random schemas and random row sets, loaded three ways — CSV through
// db.Load, binary through db.Load, and multi-row SQL INSERTs — must be
// indistinguishable to every query. The loaded tables take the direct
// compressed path for most rows; the INSERT table goes through per-row delta
// inserts and the tuple mover's threshold logic, so agreement here pins the
// whole direct-load path (decode, coercion, parallel segment build, atomic
// publish) against the trickle path.

var parityTypes = []sqltypes.Type{
	sqltypes.Int64, sqltypes.Float64, sqltypes.Bool, sqltypes.String, sqltypes.Date,
}

func randParitySchema(rng *rand.Rand) []sqltypes.Column {
	cols := make([]sqltypes.Column, 2+rng.Intn(4))
	for i := range cols {
		cols[i] = sqltypes.Column{
			Name:     fmt.Sprintf("c%d", i),
			Typ:      parityTypes[rng.Intn(len(parityTypes))],
			Nullable: true,
		}
	}
	// Guarantee at least one groupable and one summable column.
	cols[0].Typ = sqltypes.String
	cols[1].Typ = sqltypes.Int64
	return cols
}

func randParityValue(rng *rand.Rand, typ sqltypes.Type) sqltypes.Value {
	if rng.Intn(8) == 0 {
		return sqltypes.NewNull(typ)
	}
	switch typ {
	case sqltypes.Int64:
		return sqltypes.NewInt(rng.Int63n(2000) - 1000)
	case sqltypes.Float64:
		return sqltypes.NewFloat(float64(rng.Intn(4000))/8 - 250)
	case sqltypes.Bool:
		return sqltypes.NewBool(rng.Intn(2) == 0)
	case sqltypes.Date:
		return sqltypes.NewDate(int64(rng.Intn(20000)))
	default:
		// Low cardinality plus awkward content: quotes, commas, newlines,
		// unicode — everything CSV quoting has to survive.
		pool := []string{"plain", `qu"ote`, "com,ma", "new\nline", "tab\there", "ünïcode", "", "  padded  "}
		return sqltypes.NewString(fmt.Sprintf("%s-%d", pool[rng.Intn(len(pool))], rng.Intn(23)))
	}
}

// csvEncode renders rows with encoding/csv using the loader's NULL
// convention.
func csvEncode(t *testing.T, cols []sqltypes.Column, rows []sqltypes.Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	rec := make([]string, len(cols))
	for _, row := range rows {
		for i, v := range row {
			rec[i] = load.CSVField(v)
			// An empty non-null string would read back as empty string (the
			// loader's convention matches), but guard the generator anyway.
			if !v.Null && v.Typ == sqltypes.String && rec[i] == load.NullToken {
				t.Fatalf("generator produced the NULL token as a live string")
			}
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	return buf.Bytes()
}

func sqlLiteral(v sqltypes.Value) string {
	if v.Null {
		return "NULL"
	}
	switch v.Typ {
	case sqltypes.String:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case sqltypes.Date:
		return "DATE '" + sqltypes.DateToString(v.I) + "'"
	case sqltypes.Bool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return v.String()
	}
}

func insertAll(t *testing.T, db *DB, table string, cols []sqltypes.Column, rows []sqltypes.Row) {
	t.Helper()
	const chunk = 50
	for i := 0; i < len(rows); i += chunk {
		end := i + chunk
		if end > len(rows) {
			end = len(rows)
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
		for j, row := range rows[i:end] {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteByte('(')
			for k, v := range row {
				if k > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(sqlLiteral(v))
			}
			sb.WriteByte(')')
		}
		if _, err := db.Exec(sb.String()); err != nil {
			t.Fatalf("insert chunk: %v", err)
		}
	}
}

func createParityTable(t *testing.T, db *DB, name string, cols []sqltypes.Column) {
	t.Helper()
	var defs []string
	for _, c := range cols {
		defs = append(defs, fmt.Sprintf("%s %s", c.Name, c.Typ))
	}
	stmt := fmt.Sprintf("CREATE TABLE %s (%s) WITH (rowgroup_size=128, bulk_threshold=64)", name, strings.Join(defs, ", "))
	if _, err := db.Exec(stmt); err != nil {
		t.Fatal(err)
	}
}

func parityQueries(cols []sqltypes.Column) []string {
	qs := []string{
		"SELECT * FROM %s",
		"SELECT COUNT(*) FROM %s",
		"SELECT c0, COUNT(*), SUM(c1) FROM %s GROUP BY c0",
		"SELECT MIN(c1), MAX(c1) FROM %s",
		"SELECT c0 FROM %s WHERE c1 > 0",
	}
	for _, c := range cols {
		if c.Typ == sqltypes.Float64 {
			qs = append(qs, "SELECT SUM("+c.Name+") FROM %s")
			break
		}
	}
	return qs
}

func TestLoadInsertParity(t *testing.T) {
	rng := rand.New(rand.NewSource(20260809))
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			db := Open(Config{RowGroupSize: 128, BulkLoadThreshold: 64, Parallel: 2, RandSeed: 7})
			defer db.Close()
			cols := randParitySchema(rng)
			nRows := 300 + rng.Intn(500)
			rows := make([]sqltypes.Row, nRows)
			for i := range rows {
				row := make(sqltypes.Row, len(cols))
				for j, c := range cols {
					row[j] = randParityValue(rng, c.Typ)
				}
				rows[i] = row
			}

			createParityTable(t, db, "via_csv", cols)
			createParityTable(t, db, "via_bin", cols)
			createParityTable(t, db, "via_ins", cols)

			res, err := db.Load(context.Background(), LoadOptions{
				Table: "via_csv", Format: "csv", Reader: bytes.NewReader(csvEncode(t, cols, rows)),
			})
			if err != nil {
				t.Fatalf("csv load: %v (dead: %+v)", err, res.DeadLetters)
			}
			if res.RowsLoaded != nRows || len(res.DeadLetters) != 0 {
				t.Fatalf("csv load counters: %+v, want %d rows and no dead letters", res, nRows)
			}
			// Bulk acceptance: everything except a below-threshold remainder
			// compresses directly.
			if res.RowsDelta >= 64 {
				t.Fatalf("csv load left %d rows in the delta store (threshold 64)", res.RowsDelta)
			}

			schema := sqltypes.NewSchema(cols...)
			var bin []byte
			for _, row := range rows {
				bin = load.AppendFrame(bin, schema, row)
			}
			bres, err := db.Load(context.Background(), LoadOptions{
				Table: "via_bin", Format: "binary", Reader: bytes.NewReader(bin), QueueDepth: 64,
			})
			if err != nil {
				t.Fatalf("binary load: %v", err)
			}
			if bres.RowsLoaded != nRows || len(bres.DeadLetters) != 0 {
				t.Fatalf("binary load counters: %+v", bres)
			}

			insertAll(t, db, "via_ins", cols, rows)

			for _, q := range parityQueries(cols) {
				ref, err := db.Query(fmt.Sprintf(q, "via_ins"))
				if err != nil {
					t.Fatalf("query %q on via_ins: %v", q, err)
				}
				want := resultMultiset(ref)
				for _, tbl := range []string{"via_csv", "via_bin"} {
					got, err := db.Query(fmt.Sprintf(q, tbl))
					if err != nil {
						t.Fatalf("query %q on %s: %v", q, tbl, err)
					}
					if !sameMultiset(want, resultMultiset(got)) {
						t.Fatalf("parity broken for %q: %s disagrees with via_ins\ninsert: %v\nloaded: %v",
							q, tbl, want, resultMultiset(got))
					}
				}
			}
		})
	}
}

// TestCopyStatementParity drives the same pipeline through the SQL COPY
// statement (file input, WITH options) and cross-checks against INSERT.
func TestCopyStatementParity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := Open(Config{RowGroupSize: 256, BulkLoadThreshold: 64, Parallel: 2})
	defer db.Close()
	cols := randParitySchema(rng)
	rows := make([]sqltypes.Row, 777)
	for i := range rows {
		row := make(sqltypes.Row, len(cols))
		for j, c := range cols {
			row[j] = randParityValue(rng, c.Typ)
		}
		rows[i] = row
	}
	createParityTable(t, db, "cp", cols)
	createParityTable(t, db, "ins", cols)

	dir := t.TempDir()
	path := filepath.Join(dir, "rows.csv")
	var hdr []string
	for _, c := range cols {
		hdr = append(hdr, c.Name)
	}
	data := append([]byte(strings.Join(hdr, ",")+"\n"), csvEncode(t, cols, rows)...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := db.Exec(fmt.Sprintf("COPY cp FROM '%s' WITH (format='csv', header, batch_rows=256)", path))
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != len(rows) {
		t.Fatalf("COPY affected %d, want %d (message: %s)", res.Affected, len(rows), res.Message)
	}
	insertAll(t, db, "ins", cols, rows)
	for _, q := range parityQueries(cols) {
		ref, err := db.Query(fmt.Sprintf(q, "ins"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Query(fmt.Sprintf(q, "cp"))
		if err != nil {
			t.Fatal(err)
		}
		if !sameMultiset(resultMultiset(ref), resultMultiset(got)) {
			t.Fatalf("COPY parity broken for %q", q)
		}
	}
	// COPY inside a transaction is rejected (compressed groups carry no
	// per-row version state to roll back).
	sess := db.Session()
	defer sess.Close()
	if _, err := sess.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(fmt.Sprintf("COPY cp FROM '%s'", path)); err == nil {
		t.Fatal("COPY inside a transaction must be rejected")
	}
	if _, err := sess.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSnapshotNeverSeesPartialGroup runs readers against a table while a
// bulk load publishes groups of exactly G rows: every concurrent COUNT(*)
// must be a multiple of G — a reader that catches a group halfway published
// would break the atomic-publish contract.
func TestLoadSnapshotNeverSeesPartialGroup(t *testing.T) {
	const g = 256
	const groups = 24
	db := Open(Config{RowGroupSize: g, BulkLoadThreshold: g, Parallel: 2})
	defer db.Close()
	if _, err := db.Exec(fmt.Sprintf("CREATE TABLE t (id BIGINT, v VARCHAR) WITH (rowgroup_size=%d, bulk_threshold=%d)", g, g)); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	for i := 0; i < g*groups; i++ {
		fmt.Fprintf(&sb, "%d,v-%d\n", i, i%13)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	var bad error
	var badMu sync.Mutex
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := db.Query("SELECT COUNT(*) FROM t")
				if err != nil {
					continue // racing table registration
				}
				n := res.Rows[0][0].I
				if n%g != 0 {
					badMu.Lock()
					bad = fmt.Errorf("reader saw %d rows mid-load — a partial row group (group size %d)", n, g)
					badMu.Unlock()
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	res, err := db.Load(context.Background(), LoadOptions{
		Table: "t", Reader: strings.NewReader(sb.String()), BatchRows: g, QueueDepth: 512,
	})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if bad != nil {
		t.Fatal(bad)
	}
	if res.RowsDirect != g*groups || res.RowsDelta != 0 || res.Groups != groups {
		t.Fatalf("load should have been all-direct: %+v", res)
	}
	st, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.CompressedRows != g*groups || stats.DeltaRows != 0 {
		t.Fatalf("stats: %+v, want %d compressed / 0 delta", stats, g*groups)
	}
}

// TestBulkLoadSweep loads one 120k-row input six ways — SQL COPY from a
// file, db.Load at three batch sizes and at the default (BatchRows 0), and
// Table.BulkLoad — into tables whose bulk threshold is far below the input.
// Every leg must land each row (no dead letters), leave at most a
// sub-threshold tail in the delta store, and match closed-form COUNT/SUM
// aggregates, so the fast path cannot drop, duplicate, or mangle rows. The
// layout is a function of the input: each leg publishes a group every batch
// rows (a row group for COPY, the default and BulkLoad) and the remainder
// as one more group when it reaches the threshold.
func TestBulkLoadSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk-load sweep moves ~600k rows; skipped in -short")
	}
	const (
		rows         = 120_000
		rowGroupSize = 16384
		threshold    = 4096
	)
	cfg := DefaultConfig()
	cfg.TupleMoverInterval = 0
	cfg.FsyncPolicy = "off" // exercise the pipeline, not the disk
	db, err := OpenDir(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Rows [0, rows): id, id%97, and a 50-value string column so dictionary
	// encoding has something to chew on.
	var sb strings.Builder
	sb.Grow(rows * 16)
	var wantGrp int64
	input := make([]Row, rows)
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,%d,v-%d\n", i, i%97, i%50)
		wantGrp += int64(i % 97)
		input[i] = Row{NewInt(int64(i)), NewInt(int64(i % 97)), NewString(fmt.Sprintf("v-%d", i%50))}
	}
	data := sb.String()
	wantSum := int64(rows) * int64(rows-1) / 2
	path := filepath.Join(t.TempDir(), "sweep.csv")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}

	legs := []struct {
		name  string
		via   string // "copy", "load" (db.Load) or "bulkload" (Table.BulkLoad)
		batch int    // db.Load BatchRows; 0 = the row-group size
	}{
		{"copy", "copy", 0},
		{"load_4096", "load", threshold},
		{"load_8192", "load", threshold * 2},
		{"load_16384", "load", rowGroupSize},
		{"load_default", "load", 0}, // seven groups of 16,384 rows and one of 5,312
		{"bulkload", "bulkload", 0},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			table := "sweep_" + leg.name
			if _, err := db.Exec(fmt.Sprintf("CREATE TABLE %s (id BIGINT, grp BIGINT, v VARCHAR) WITH (rowgroup_size=%d, bulk_threshold=%d)",
				table, rowGroupSize, threshold)); err != nil {
				t.Fatal(err)
			}
			tb, err := db.Table(table)
			if err != nil {
				t.Fatal(err)
			}
			var loaded, delta int
			switch leg.via {
			case "copy":
				res, err := db.Exec(fmt.Sprintf("COPY %s FROM '%s' WITH (format='csv')", table, path))
				if err != nil {
					t.Fatalf("COPY: %v", err)
				}
				st := tb.Stats()
				loaded, delta = res.Affected, st.DeltaRows
				if st.CompressedRows != rows-st.DeltaRows || st.CompressedGroups == 0 {
					t.Fatalf("COPY compressed %d rows in %d groups, want %d", st.CompressedRows, st.CompressedGroups, rows-st.DeltaRows)
				}
			case "bulkload":
				if err := tb.BulkLoad(input); err != nil {
					t.Fatalf("BulkLoad: %v", err)
				}
				loaded, delta = rows, tb.Stats().DeltaRows
			default:
				res, err := db.Load(context.Background(), LoadOptions{
					Table: table, Reader: strings.NewReader(data), BatchRows: leg.batch,
				})
				if err != nil {
					t.Fatalf("load: %v", err)
				}
				if len(res.DeadLetters) != 0 {
					t.Fatalf("load: %d dead letters", len(res.DeadLetters))
				}
				loaded, delta = res.RowsLoaded, res.RowsDelta
			}
			if loaded != rows {
				t.Fatalf("loaded %d rows, want %d", loaded, rows)
			}
			if delta >= threshold {
				t.Fatalf("left %d rows in the delta store, want < %d: direct path only, sub-threshold tail at most", delta, threshold)
			}
			batch := cmp.Or(leg.batch, rowGroupSize)
			var want, sizes []int
			wantDelta := rows
			for ; wantDelta >= threshold; wantDelta -= min(wantDelta, batch) {
				want = append(want, min(wantDelta, batch))
			}
			for _, g := range tb.t.Index().Groups() {
				sizes = append(sizes, g.Rows)
			}
			if fmt.Sprint(sizes) != fmt.Sprint(want) || delta != wantDelta {
				t.Fatalf("published groups of %v rows and %d delta rows, want %v and %d", sizes, delta, want, wantDelta)
			}
			res, err := db.Query(fmt.Sprintf("SELECT COUNT(*), SUM(id), SUM(grp) FROM %s", table))
			if err != nil {
				t.Fatalf("parity query: %v", err)
			}
			got := res.Rows[0]
			if got[0].I != rows || got[1].I != wantSum || got[2].I != wantGrp {
				t.Fatalf("parity gate failed: COUNT=%d SUM(id)=%d SUM(grp)=%d, want %d/%d/%d",
					got[0].I, got[1].I, got[2].I, rows, wantSum, wantGrp)
			}
		})
	}
}

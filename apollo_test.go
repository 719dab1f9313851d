package apollo

import (
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"apollo/internal/sched"
)

func openTest(t *testing.T) *DB {
	t.Helper()
	cfg := DefaultConfig()
	cfg.RowGroupSize = 300
	cfg.BulkLoadThreshold = 50
	cfg.TupleMoverInterval = 0 // manual in tests
	db := Open(cfg)
	t.Cleanup(db.Close)
	return db
}

func TestQuickstartFlow(t *testing.T) {
	db := openTest(t)
	db.MustExec("CREATE TABLE sales (id BIGINT NOT NULL, amount DOUBLE, region VARCHAR NOT NULL, sold DATE NOT NULL)")
	db.MustExec("INSERT INTO sales VALUES (1, 9.99, 'north', DATE '2013-06-22'), (2, 5.00, 'south', DATE '2013-06-23'), (3, NULL, 'north', DATE '2013-06-24')")
	res, err := db.Query("SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM sales GROUP BY region ORDER BY region")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "region" || res.Columns[2] != "total" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.Rows[0][0].S != "north" || res.Rows[0][1].I != 2 || res.Rows[0][2].F != 9.99 {
		t.Fatalf("north row = %v", res.Rows[0])
	}
	if !res.BatchMode {
		t.Fatal("default mode should be batch")
	}
}

func TestProgrammaticBulkLoad(t *testing.T) {
	db := openTest(t)
	schema := &Schema{Cols: []Column{
		{Name: "k", Typ: Int64},
		{Name: "v", Typ: String},
	}}
	tb, err := db.CreateTable("kv", schema)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i)), NewString("v")}
	}
	if err := tb.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	st := tb.Stats()
	if st.CompressedRows != 1000 || st.CompressedGroups != 4 {
		t.Fatalf("stats = %+v", st)
	}
	res := db.MustExec("SELECT COUNT(*) FROM kv")
	if res.Rows[0][0].I != 1000 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	if tb.Rows() != 1000 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	if len(tb.Sample(10, 1)) != 10 {
		t.Fatal("sample failed")
	}
}

// A delta store closed by SQL inserts is moved on its kick: the scheduler's
// clock never moves.
func TestBackgroundTupleMoverViaSQL(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RowGroupSize = 100
	cfg.BulkLoadThreshold = 1000
	db := open(cfg, new(sched.Manual).Now)
	defer db.Close()
	db.MustExec("CREATE TABLE t (a BIGINT)")
	for i := 0; i < 30; i++ {
		db.MustExec("INSERT INTO t VALUES (1),(2),(3),(4),(5),(6),(7),(8),(9),(10)")
	}
	db.sched.Settle()
	tb, _ := db.Table("t")
	if got := tb.Stats().CompressedRows; got != 300 {
		t.Fatalf("tuple mover left %d compressed rows", got)
	}
	if !tb.Health().MoverRunning {
		t.Fatal("mover job not reported running")
	}
	db.MustExec("DROP TABLE t")
	if tb.Health().MoverRunning {
		t.Fatal("dropped table's mover job still registered")
	}
}

// moduleGoroutines counts the goroutines running this module's code, the
// caller's own excepted. The testing package's goroutines come and go
// between tests (-count=N), so runtime.NumGoroutine would blur the count.
func moduleGoroutines() int {
	buf := make([]byte, 1<<16)
	for n := runtime.Stack(buf, true); n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if moduleFrame.MatchString(g) {
			count++
		}
	}
	return count
}

var moduleFrame = regexp.MustCompile(`(?m)^apollo[./]`)

// An idle DB with the tuple mover and the scrubber on runs the same number
// of background goroutines however many tables it has, and none once
// closed; a durable DB flushing its WAL on an interval runs no more.
func TestIdleDBBackgroundGoroutines(t *testing.T) {
	// atMost yields until at most want goroutines are left, giving the
	// ones a stop has just released the moment they need to exit.
	atMost := func(want int) int {
		n := moduleGoroutines()
		for i := 0; i < 1000 && n > want; i++ {
			runtime.Gosched()
			n = moduleGoroutines()
		}
		return n
	}
	legs := []struct {
		tables int
		fsync  string // "" opens in memory
	}{{1, ""}, {10, ""}, {40, ""}, {1, "interval"}}
	var extra []int
	for _, leg := range legs {
		base := moduleGoroutines()
		cfg := DefaultConfig()
		cfg.TupleMoverInterval = time.Hour
		cfg.ScrubInterval = time.Hour
		var db *DB
		if leg.fsync == "" {
			db = Open(cfg)
		} else {
			cfg.FsyncPolicy = leg.fsync
			var err error
			if db, err = OpenDir(t.TempDir(), cfg); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < leg.tables; i++ {
			db.MustExec(fmt.Sprintf("CREATE TABLE t%d (a BIGINT)", i))
		}
		extra = append(extra, moduleGoroutines()-base)
		db.Close()
		if n := atMost(base); n > base {
			t.Fatalf("%d goroutines after Close, %d before Open", n, base)
		}
	}
	t.Logf("background goroutines with 1/10/40 tables in memory, 1 table at fsync interval: %v", extra)
	for _, n := range extra[1:] {
		if n != extra[0] {
			t.Fatalf("background goroutines with 1/10/40 tables in memory, 1 table at fsync interval: %v, want one constant", extra)
		}
	}
}

func TestQueryStatsExposed(t *testing.T) {
	db := openTest(t)
	db.MustExec("CREATE TABLE t (a BIGINT NOT NULL, b BIGINT NOT NULL)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < 900; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString("(")
		sb.WriteString(itoa(i))
		sb.WriteString(",1)")
	}
	db.MustExec(sb.String())
	res := db.MustExec("SELECT COUNT(*) FROM t WHERE a < 100")
	if res.Stats.RowGroups == 0 {
		t.Fatalf("stats empty: %+v", res.Stats)
	}
	if res.Stats.RowGroupsEliminated == 0 {
		t.Fatalf("expected segment elimination on sorted load: %+v", res.Stats)
	}
}

func itoa(i int) string {
	return NewInt(int64(i)).String()
}

func TestIOStatsAndEviction(t *testing.T) {
	db := openTest(t)
	db.MustExec("CREATE TABLE t (a BIGINT NOT NULL)")
	db.MustExec("INSERT INTO t VALUES (1),(2),(3),(4),(5),(6),(7),(8),(9),(10)," +
		"(11),(12),(13),(14),(15),(16),(17),(18),(19),(20)," +
		"(21),(22),(23),(24),(25),(26),(27),(28),(29),(30)," +
		"(31),(32),(33),(34),(35),(36),(37),(38),(39),(40)," +
		"(41),(42),(43),(44),(45),(46),(47),(48),(49),(50)")
	tb, _ := db.Table("t")
	tb.Reorganize()
	db.ResetIOStats()
	db.EvictCaches()
	db.MustExec("SELECT SUM(a) FROM t")
	cold := db.IOStats()
	if cold.Reads == 0 {
		t.Fatal("no cold reads recorded")
	}
	db.ResetIOStats()
	db.MustExec("SELECT SUM(a) FROM t")
	warm := db.IOStats()
	if warm.CacheHits == 0 || warm.Reads >= cold.Reads {
		t.Fatalf("buffer pool ineffective: cold=%+v warm=%+v", cold, warm)
	}
	if db.DiskBytes() == 0 {
		t.Fatal("disk bytes = 0")
	}
}

func TestArchiveTierConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RowGroupSize = 100
	cfg.BulkLoadThreshold = 10
	cfg.ArchiveTier = true
	cfg.TupleMoverInterval = 0
	db := Open(cfg)
	defer db.Close()
	db.MustExec("CREATE TABLE t (s VARCHAR NOT NULL)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < 500; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString("('the quick brown fox jumps over the lazy dog')")
	}
	db.MustExec(sb.String())
	res := db.MustExec("SELECT COUNT(*) FROM t WHERE s LIKE 'the%'")
	if res.Rows[0][0].I != 500 {
		t.Fatalf("archival tier query = %v", res.Rows[0][0])
	}
}

func TestModesConfig(t *testing.T) {
	for _, mode := range []ExecutionMode{Mode2014, Mode2012, ModeRow} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.TupleMoverInterval = 0
		db := Open(cfg)
		db.MustExec("CREATE TABLE t (a BIGINT)")
		db.MustExec("INSERT INTO t VALUES (1), (2)")
		res := db.MustExec("SELECT SUM(a) FROM t")
		if res.Rows[0][0].I != 3 {
			t.Fatalf("mode %v: sum = %v", mode, res.Rows[0][0])
		}
		db.Close()
	}
}

func TestMetadataOnlyCount(t *testing.T) {
	db := openTest(t)
	db.MustExec("CREATE TABLE t (a BIGINT NOT NULL)")
	db.MustExec("INSERT INTO t VALUES (5), (1), (9)")
	res := db.MustExec("SELECT COUNT(*), MIN(a), MAX(a) FROM t")
	if !res.MetadataOnly {
		t.Fatal("expected metadata-only answer")
	}
	r := res.Rows[0]
	if r[0].I != 3 || r[1].I != 1 || r[2].I != 9 {
		t.Fatalf("row = %v", r)
	}
	// A filter disables the shortcut but yields the same kind of answer.
	res2 := db.MustExec("SELECT COUNT(*) FROM t WHERE a > 1")
	if res2.MetadataOnly || res2.Rows[0][0].I != 2 {
		t.Fatalf("filtered count: %+v %v", res2.MetadataOnly, res2.Rows[0])
	}
}

// TestConcurrentWorkload drives SQL DML and queries concurrently with the
// background tuple mover — the paper's mixed OLTP-ish/analytic scenario.
// Invariants: queries never fail, never see a row twice, and the final count
// reconciles inserts minus deletes.
func TestConcurrentWorkload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RowGroupSize = 500
	cfg.BulkLoadThreshold = 100
	cfg.TupleMoverInterval = time.Millisecond
	db := Open(cfg)
	defer db.Close()
	db.MustExec("CREATE TABLE ev (id BIGINT NOT NULL, v BIGINT NOT NULL)")

	const writers = 3
	const perWriter = 2000
	done := make(chan struct{})
	errs := make(chan error, 16)

	for w := 0; w < writers; w++ {
		go func(w int) {
			tb, _ := db.Table("ev")
			for i := 0; i < perWriter; i++ {
				id := int64(w*perWriter + i)
				if err := tb.Insert(Row{NewInt(id), NewInt(id % 7)}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}

	// Concurrent readers.
	go func() {
		for {
			select {
			case <-done:
				errs <- nil
				return
			default:
			}
			res, err := db.Query("SELECT COUNT(*), COUNT(DISTINCT id) FROM ev")
			if err != nil {
				errs <- err
				return
			}
			if res.Rows[0][0].I != res.Rows[0][1].I {
				errs <- fmt.Errorf("duplicate ids visible: %v", res.Rows[0])
				return
			}
		}
	}()

	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	del := db.MustExec("DELETE FROM ev WHERE id % 10 = 0")
	want := writers*perWriter - del.Affected
	res := db.MustExec("SELECT COUNT(*) FROM ev")
	if int(res.Rows[0][0].I) != want {
		t.Fatalf("count = %v, want %d", res.Rows[0][0], want)
	}
}

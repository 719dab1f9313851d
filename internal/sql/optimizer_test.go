package sql

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"apollo/internal/catalog"
	"apollo/internal/plan"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/table"
)

// Optimizer lockdown suite: the cost-based optimizer (real statistics, DP
// join enumeration, Bloom cost gating, per-pipeline DOP) is pinned three
// ways — plan-stability goldens over star/chain shapes, a cardinality
// q-error harness comparing estimated to actual rows, and a property test
// asserting optimized and heuristic plans return identical multisets.

// --- Star-schema fixture ---

const starFactRows = 4000

// starSeedStmts builds the star/chain fixture: a fact table joined to four
// dimensions plus a snowflaked state->region dimension hanging off
// dim_cust. Distributions are deterministic: cust/store/promo uniform, prod
// skewed (quadratic residues), qty small-domain.
func starSeedStmts() []string {
	stmts := []string{
		`CREATE TABLE fact (fid BIGINT NOT NULL, cust BIGINT NOT NULL, prod BIGINT NOT NULL,
			store BIGINT NOT NULL, promo BIGINT NOT NULL, qty BIGINT NOT NULL, price DOUBLE NOT NULL)`,
		`CREATE TABLE dim_cust (cid BIGINT NOT NULL, cname VARCHAR NOT NULL, state VARCHAR NOT NULL)`,
		`CREATE TABLE dim_state (state VARCHAR NOT NULL, region VARCHAR NOT NULL)`,
		`CREATE TABLE dim_prod (pid BIGINT NOT NULL, category VARCHAR NOT NULL)`,
		`CREATE TABLE dim_store (sid BIGINT NOT NULL, city VARCHAR NOT NULL)`,
		`CREATE TABLE dim_promo (prid BIGINT NOT NULL, kind VARCHAR NOT NULL)`,
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO fact VALUES ")
	for i := 0; i < starFactRows; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, %d, %d, %d, %d.%02d)",
			i, i%300, (i*i)%120, i%40, i%12, 1+i%10, i%500, i%100)
	}
	stmts = append(stmts, sb.String())

	sb.Reset()
	sb.WriteString("INSERT INTO dim_cust VALUES ")
	for i := 0; i < 300; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "(%d, 'cust%d', 's%d')", i, i, i%15)
	}
	stmts = append(stmts, sb.String())

	sb.Reset()
	sb.WriteString("INSERT INTO dim_state VALUES ")
	for i := 0; i < 15; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "('s%d', 'r%d')", i, i%4)
	}
	stmts = append(stmts, sb.String())

	sb.Reset()
	sb.WriteString("INSERT INTO dim_prod VALUES ")
	for i := 0; i < 120; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "(%d, 'c%d')", i, i%8)
	}
	stmts = append(stmts, sb.String())

	sb.Reset()
	sb.WriteString("INSERT INTO dim_store VALUES ")
	for i := 0; i < 40; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "(%d, 'city%d')", i, i%10)
	}
	stmts = append(stmts, sb.String())

	sb.Reset()
	sb.WriteString("INSERT INTO dim_promo VALUES ")
	for i := 0; i < 12; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "(%d, 'k%d')", i, i%4)
	}
	stmts = append(stmts, sb.String())
	return stmts
}

// starCatalog builds the fixture once and hands out engines sharing it: one
// cost-based (the default planner) and one heuristic baseline (no join
// reordering, fixed DOP) per requested parallelism. Shared across tests and
// the fuzz target, so it must not depend on *testing.T.
var starFixture struct {
	once sync.Once
	cat  *catalog.Catalog
	err  error
}

func starEngines(dop int) (opt, heur *Engine, err error) {
	starFixture.once.Do(func() {
		cat := catalog.New(storage.NewStore(storage.DefaultBufferPoolBytes))
		opts := table.DefaultOptions()
		opts.RowGroupSize = 1000
		opts.BulkLoadThreshold = 50
		e := &Engine{Cat: cat, PlanOpts: plan.Options{Mode: plan.Mode2014}, TableOpts: opts}
		for _, s := range starSeedStmts() {
			if _, err := e.Exec(s); err != nil {
				starFixture.err = fmt.Errorf("star fixture: %w", err)
				return
			}
		}
		starFixture.cat = cat
	})
	if starFixture.err != nil {
		return nil, nil, starFixture.err
	}
	opt = &Engine{Cat: starFixture.cat, PlanOpts: plan.Options{Mode: plan.Mode2014, Parallel: dop}}
	heur = &Engine{Cat: starFixture.cat, PlanOpts: plan.Options{
		Mode: plan.Mode2014, Parallel: dop, NoJoinReorder: true, FixedDOP: true}}
	return opt, heur, nil
}

// --- Plan-stability goldens: star and chain shapes ---

var starGoldenCases = []struct {
	name  string
	query string
}{
	{"star2_filter", "SELECT f.fid, c.cname FROM fact f JOIN dim_cust c ON f.cust = c.cid WHERE c.state = 's3'"},
	{"star3_selective_dim", "SELECT SUM(f.qty) FROM fact f JOIN dim_cust c ON f.cust = c.cid JOIN dim_prod p ON f.prod = p.pid WHERE p.category = 'c2'"},
	{"star3_two_filters", "SELECT COUNT(*) FROM fact f JOIN dim_cust c ON f.cust = c.cid JOIN dim_prod p ON f.prod = p.pid WHERE c.state = 's1' AND p.category = 'c3'"},
	{"star3_agg", "SELECT p.category, SUM(f.price) FROM fact f JOIN dim_cust c ON f.cust = c.cid JOIN dim_prod p ON f.prod = p.pid GROUP BY p.category"},
	{"star4_city", "SELECT COUNT(*) FROM fact f JOIN dim_cust c ON f.cust = c.cid JOIN dim_prod p ON f.prod = p.pid JOIN dim_store s ON f.store = s.sid WHERE s.city = 'city4'"},
	{"star5_bench", starBenchQuery},
	{"chain3_region", "SELECT st.region, COUNT(*) FROM fact f JOIN dim_cust c ON f.cust = c.cid JOIN dim_state st ON c.state = st.state GROUP BY st.region"},
	{"chain3_filtered", "SELECT f.fid FROM fact f JOIN dim_cust c ON f.cust = c.cid JOIN dim_state st ON c.state = st.state WHERE st.region = 'r1' AND f.qty > 8"},
	{"semi_star", "SELECT cname FROM dim_cust c LEFT SEMI JOIN fact f ON c.cid = f.cust"},
	{"star3_topn", "SELECT f.fid, c.cname FROM fact f JOIN dim_cust c ON f.cust = c.cid JOIN dim_promo pr ON f.promo = pr.prid WHERE pr.kind = 'k1' ORDER BY f.fid LIMIT 10"},
}

// The 5-table star join used by both the plan goldens and the cost-based vs
// heuristic comparison: filters on two dimensions make join order matter.
const starBenchQuery = "SELECT COUNT(*), SUM(f.qty) FROM fact f " +
	"JOIN dim_cust c ON f.cust = c.cid " +
	"JOIN dim_prod p ON f.prod = p.pid " +
	"JOIN dim_store s ON f.store = s.sid " +
	"JOIN dim_promo pr ON f.promo = pr.prid " +
	"WHERE c.state = 's7' AND p.category = 'c1'"

func TestOptimizerGoldenPlans(t *testing.T) {
	for _, dop := range []int{1, 8} {
		e, _, err := starEngines(dop)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range starGoldenCases {
			t.Run(fmt.Sprintf("%s/dop%d", tc.name, dop), func(t *testing.T) {
				explain := mustExec(t, e, "EXPLAIN "+tc.query).Message
				analyze := normalizeAnalyze(mustExec(t, e, "EXPLAIN ANALYZE "+tc.query).Message)
				content := "query: " + tc.query + "\n\n-- explain\n" + explain + "\n-- explain analyze\n" + analyze
				path := filepath.Join("testdata", "golden", fmt.Sprintf("%s.dop%d.golden", tc.name, dop))
				if *updateGolden {
					if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update to create): %v", err)
				}
				if string(want) != content {
					t.Errorf("golden mismatch for %s (run with -update if intentional)\n--- want\n%s\n--- got\n%s", path, want, content)
				}
			})
		}
	}
}

// --- Cardinality accuracy: q-error per query shape ---

// qerrCase pins the estimator's q-error — max(est/actual, actual/est) — for
// one query over a known distribution. Bounds are intentionally loose where
// the model is known to be weak (independence assumption on correlated
// conjuncts) and tight where it should be strong (histograms on uniform
// data, NDV joins).
type qerrCase struct {
	name  string
	query string
	bound float64
}

var qerrCases = []qerrCase{
	{"uniform_point", "SELECT * FROM qu_uniform WHERE v = 50", 1.5},
	{"uniform_range", "SELECT * FROM qu_uniform WHERE v BETWEEN 10 AND 29", 1.5},
	{"uniform_conjunct", "SELECT * FROM qu_uniform WHERE v >= 40 AND id < 1000", 2.5},
	{"zipf_heavy", "SELECT * FROM qu_zipf WHERE v = 44", 2.5},
	{"zipf_tail", "SELECT * FROM qu_zipf WHERE v = 2", 4.0},
	{"zipf_range", "SELECT * FROM qu_zipf WHERE v >= 40", 1.6},
	{"corr_conjunct", "SELECT * FROM qu_corr WHERE a = 37 AND b = 3", 8.0},
	{"corr_implied_range", "SELECT * FROM qu_corr WHERE a < 50 AND b < 5", 3.0},
	{"join_uniform_zipf", "SELECT * FROM qu_uniform u JOIN qu_zipf z ON u.v = z.v", 1.5},
	{"join_filtered", "SELECT * FROM qu_uniform u JOIN qu_zipf z ON u.v = z.v WHERE u.id < 200", 2.5},
	{"groupby_zipf", "SELECT v, COUNT(*) FROM qu_zipf GROUP BY v", 1.5},
	{"groupby_corr", "SELECT a, b, COUNT(*) FROM qu_corr GROUP BY a, b", 12.0},
}

// isqrt is the integer square root used to shape the zipf-like column:
// value k appears 2k+1 times, so high values dominate.
func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

func qerrEngine(t *testing.T) *Engine {
	t.Helper()
	e := newEngine(t, plan.Mode2014)
	mustExec(t, e, "CREATE TABLE qu_uniform (id BIGINT NOT NULL, v BIGINT NOT NULL)")
	mustExec(t, e, "CREATE TABLE qu_zipf (id BIGINT NOT NULL, v BIGINT NOT NULL)")
	mustExec(t, e, "CREATE TABLE qu_corr (a BIGINT NOT NULL, b BIGINT NOT NULL)")
	ins := func(table string, val func(i int) string) {
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
		for i := 0; i < 2000; i++ {
			if i > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(val(i))
		}
		mustExec(t, e, sb.String())
	}
	ins("qu_uniform", func(i int) string { return fmt.Sprintf("(%d, %d)", i, i%100) })
	ins("qu_zipf", func(i int) string { return fmt.Sprintf("(%d, %d)", i, isqrt(i)) })
	ins("qu_corr", func(i int) string { return fmt.Sprintf("(%d, %d)", i%100, (i%100)/10) })
	return e
}

func TestCardinalityQError(t *testing.T) {
	e := qerrEngine(t)
	for _, tc := range qerrCases {
		t.Run(tc.name, func(t *testing.T) {
			res := mustExec(t, e, tc.query)
			if res.Compiled == nil {
				t.Fatal("no compiled plan on result")
			}
			est := res.Compiled.EstRows[res.Compiled.Plan]
			actual := len(res.Rows)
			if actual == 0 {
				t.Fatalf("degenerate case: zero actual rows")
			}
			q := est / float64(actual)
			if q < 1 {
				q = 1 / q
			}
			if q > tc.bound {
				t.Errorf("q-error %.2f exceeds bound %.2f (est=%.1f actual=%d)", q, tc.bound, est, actual)
			}
		})
	}
}

// --- 5-table star join: cost-based vs heuristic plan ---

var annotRE = regexp.MustCompile(` \[[^\]]*\]`)

// planShape strips the per-node annotations (estimates, runtime counters,
// bloom notes) so two plans compare by operator tree alone.
func planShape(explain string) string { return annotRE.ReplaceAllString(explain, "") }

func sortedRowStrings(res *Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		var sb strings.Builder
		for i, v := range r {
			if i > 0 {
				sb.WriteString("|")
			}
			sb.WriteString(v.String())
		}
		out = append(out, sb.String())
	}
	sort.Strings(out)
	return out
}

func TestOptimizerStarBench(t *testing.T) {
	opt, heur, err := starEngines(8)
	if err != nil {
		t.Fatal(err)
	}
	explainOpt := mustExec(t, opt, "EXPLAIN "+starBenchQuery).Message
	explainHeur := mustExec(t, heur, "EXPLAIN "+starBenchQuery).Message
	if planShape(explainOpt) == planShape(explainHeur) {
		t.Errorf("cost-based plan identical to heuristic plan:\n%s", explainOpt)
	}

	rowsOpt := sortedRowStrings(mustExec(t, opt, starBenchQuery))
	rowsHeur := sortedRowStrings(mustExec(t, heur, starBenchQuery))
	if fmt.Sprint(rowsOpt) != fmt.Sprint(rowsHeur) {
		t.Fatalf("result mismatch:\noptimized: %v\nheuristic: %v", rowsOpt, rowsHeur)
	}
}

// --- Optimizer parity: optimized and heuristic plans agree on results ---

// randomStarQuery derives a random multi-join query over the star fixture
// from an rng: 1-4 dimensions in shuffled FROM order, a random subset of
// filters, and either a plain projection or an aggregation.
func randomStarQuery(rng *rand.Rand) string {
	type dim struct{ alias, join string }
	dims := []dim{
		{"c", "JOIN dim_cust c ON f.cust = c.cid"},
		{"p", "JOIN dim_prod p ON f.prod = p.pid"},
		{"s", "JOIN dim_store s ON f.store = s.sid"},
		{"pr", "JOIN dim_promo pr ON f.promo = pr.prid"},
	}
	rng.Shuffle(len(dims), func(i, j int) { dims[i], dims[j] = dims[j], dims[i] })
	n := 1 + rng.Intn(len(dims))
	dims = dims[:n]
	chosen := map[string]bool{}
	from := "FROM fact f"
	for _, d := range dims {
		from += " " + d.join
		chosen[d.alias] = true
	}
	var preds []string
	if chosen["c"] && rng.Intn(2) == 0 {
		preds = append(preds, fmt.Sprintf("c.state = 's%d'", rng.Intn(15)))
	}
	if chosen["p"] && rng.Intn(2) == 0 {
		preds = append(preds, fmt.Sprintf("p.category = 'c%d'", rng.Intn(8)))
	}
	if chosen["s"] && rng.Intn(2) == 0 {
		preds = append(preds, fmt.Sprintf("s.city = 'city%d'", rng.Intn(10)))
	}
	if chosen["pr"] && rng.Intn(2) == 0 {
		preds = append(preds, fmt.Sprintf("pr.kind = 'k%d'", rng.Intn(4)))
	}
	if rng.Intn(3) == 0 {
		preds = append(preds, fmt.Sprintf("f.qty > %d", rng.Intn(10)))
	}
	where := ""
	if len(preds) > 0 {
		where = " WHERE " + strings.Join(preds, " AND ")
	}
	if rng.Intn(2) == 0 {
		return "SELECT COUNT(*), SUM(f.qty) " + from + where
	}
	return "SELECT f.fid " + from + where
}

// checkParity runs one query on the optimized and heuristic engines and
// fails if the result multisets differ.
func checkParity(t *testing.T, dop int, query string) {
	t.Helper()
	opt, heur, err := starEngines(dop)
	if err != nil {
		t.Fatal(err)
	}
	resOpt, err := opt.Exec(query)
	if err != nil {
		t.Fatalf("optimized exec %q: %v", query, err)
	}
	resHeur, err := heur.Exec(query)
	if err != nil {
		t.Fatalf("heuristic exec %q: %v", query, err)
	}
	a, b := sortedRowStrings(resOpt), sortedRowStrings(resHeur)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("parity violation at dop %d for %q:\noptimized (%d rows): %.400v\nheuristic (%d rows): %.400v",
			dop, query, len(a), a, len(b), b)
	}
}

func TestOptimizerParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260809))
	for i := 0; i < 60; i++ {
		query := randomStarQuery(rng)
		for _, dop := range []int{1, 8} {
			checkParity(t, dop, query)
		}
	}
}

// FuzzOptimizerParity drives the same property from fuzzed bytes: the seed
// corpus covers each dimension count, and the engine explores the query
// space through the derived rng. Wired into `make fuzz-smoke`.
func FuzzOptimizerParity(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Add(int64(999983))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		checkParity(t, 1+rng.Intn(8), randomStarQuery(rng))
	})
}

// --- Statistics lifecycle ---

// TestStatsCacheRefreshAfterPublish pins the staleness contract: snapshots
// are reused while the table's publish version is unchanged and row drift
// stays under 10%, and recollected as soon as a row-group publish (bulk
// load, tuple mover, rebuild) bumps the version.
func TestStatsCacheRefreshAfterPublish(t *testing.T) {
	e := newEngine(t, plan.Mode2014)
	mustExec(t, e, "CREATE TABLE st (id BIGINT NOT NULL, v BIGINT NOT NULL)")
	ins := func(lo, hi int) {
		var sb strings.Builder
		sb.WriteString("INSERT INTO st VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, i%7)
		}
		mustExec(t, e, sb.String())
	}
	ins(0, 100) // >= bulk threshold: compresses and publishes
	ts1, _, err := e.TableStats("st")
	if err != nil {
		t.Fatal(err)
	}
	if ts1.Rows != 100 {
		t.Fatalf("initial stats rows = %d, want 100", ts1.Rows)
	}

	// Small delta trickle: no publish, <10% drift — the snapshot is reused.
	mustExec(t, e, "INSERT INTO st VALUES (1000, 1), (1001, 2)")
	ts2, _, err := e.TableStats("st")
	if err != nil {
		t.Fatal(err)
	}
	if ts2 != ts1 {
		t.Fatalf("snapshot recollected on a 2%% drift with no publish (rows %d -> %d)", ts1.Rows, ts2.Rows)
	}

	// A bulk load publishes row groups: the version bump must invalidate the
	// snapshot even though the cache key (the table pointer) is unchanged.
	ins(2000, 2100)
	ts3, _, err := e.TableStats("st")
	if err != nil {
		t.Fatal(err)
	}
	if ts3 == ts1 {
		t.Fatal("snapshot not recollected after a bulk-load publish")
	}
	if ts3.Rows != 202 {
		t.Fatalf("refreshed stats rows = %d, want 202", ts3.Rows)
	}
	if ts3.Version <= ts1.Version {
		t.Fatalf("stats version did not advance: %d -> %d", ts1.Version, ts3.Version)
	}

	// REORGANIZE moves the delta trickle through the tuple mover — another
	// publish, another refresh. This is the regression case: the old cache
	// ignored publishes entirely (and never refreshed tables under 100 rows).
	mustExec(t, e, "REORGANIZE st")
	ts4, _, err := e.TableStats("st")
	if err != nil {
		t.Fatal(err)
	}
	if ts4 == ts3 {
		t.Fatal("snapshot not recollected after a tuple-mover publish")
	}
}

func TestShowStats(t *testing.T) {
	e := newEngine(t, plan.Mode2014)
	seed(t, e)
	for _, src := range []string{"SHOW STATS FOR sales", "SHOW STATS sales"} {
		res := mustExec(t, e, src)
		if len(res.Rows) != 5 {
			t.Fatalf("%s: got %d rows, want one per column (5)", src, len(res.Rows))
		}
		if !strings.Contains(res.Message, "rows=1000") {
			t.Errorf("%s: message %q missing live row count", src, res.Message)
		}
		byName := map[string]sqltypes.Row{}
		for _, r := range res.Rows {
			byName[r[0].S] = r
		}
		if got := byName["region"][5].I; got != 4 {
			t.Errorf("region ndv = %d, want 4", got)
		}
		if got := byName["cust"][5].I; got != 20 {
			t.Errorf("cust ndv = %d, want 20", got)
		}
		if got := byName["amount"][4].I; got != 20 {
			t.Errorf("amount nulls = %d, want 20", got)
		}
		if got := byName["id"][6].I; got == 0 {
			t.Error("id histogram missing")
		}
	}
	if _, err := e.Exec("SHOW STATS FOR nosuch"); err == nil {
		t.Error("SHOW STATS on a missing table should fail")
	}
}

package apollo_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"apollo"
	"apollo/internal/wal"
)

// The crash matrix proves that acknowledged writes survive a power cut.
// TestCrashMatrix re-executes this test binary as a child process that runs
// one workload of crashWorkloads against a durable database with the WAL
// armed to crash at a byte offset (Config.WALCrashAt): at that offset the
// writer flushes a partial frame and kills the process with exit code 3.
// The parent then recovers the directory and runs the workload's oracle.
//
// Child protocol (set by the parent, read by TestMain):
//
//	APOLLO_CRASH_CHILD=<workload>  run that workload instead of the tests
//	APOLLO_CRASH_DIR=...           database directory
//	APOLLO_CRASH_AT=N              WAL byte offset to crash at (0 = none)
//	APOLLO_CRASH_FSYNC=...         fsync policy: always, interval, off
//
// The child appends one fsynced line per acknowledged unit to DIR/acks:
// "<label> <WAL bytes at ack time>". The runner writes "open" once the
// database is open and "done" after a clean finish; a workload with setup
// statements writes "setup" once they are logged. The parent reads the
// acked count, the setup offset and the WAL total from that one log.

// TestMain dispatches crash children: when the matrix re-executes this
// binary with APOLLO_CRASH_CHILD set, the child runs its workload (and dies
// at its armed crash point) instead of the test suite.
func TestMain(m *testing.M) {
	if name := os.Getenv("APOLLO_CRASH_CHILD"); name != "" {
		runCrashChild(name) // exits
	}
	os.Exit(m.Run())
}

// crashWorkload is one row of the crash matrix.
type crashWorkload struct {
	name     string
	policies []string
	config   func(policy string) apollo.Config
	// run is the child body. It calls c.ack after each acknowledged unit
	// and childFail on any unexpected error.
	run func(c *crashChild)
	// verify recovers a run's directory and checks the workload's oracle.
	verify func(t *testing.T, r crashRun)
	// points is the crash-point count per policy, by default and under
	// APOLLO_CRASH_FULL; crashPoints derives that many offsets from the
	// crash-free baseline's ack log. A nil crashPoints runs the baseline only.
	points      [2]int
	crashPoints func(policy string, base ackLog, n int) []int64
	// mayFinish marks a nondeterministic workload whose run can end before
	// its crash point. At least one point must still fire per policy.
	mayFinish bool
}

var bothPolicies = []string{"always", "interval"}

var crashWorkloads = []crashWorkload{
	{
		name: "script", policies: bothPolicies, config: scriptConfig,
		run: runScript, verify: verifyScript, points: [2]int{8, 64},
		crashPoints: func(policy string, base ackLog, n int) []int64 {
			pts := drawPoints(20130622, base.setup, base.total, n)
			if policy == "always" {
				// Tear the checkpoint-end frame after the checkpoint image
				// is durable: the single writer logs nothing between the
				// checkpoint's begin and end records.
				pts = append(pts, midCheckpoint(base))
			}
			return pts
		},
	},
	{
		name: "bulk", policies: bothPolicies, config: bulkConfig,
		run: runBulk, verify: verifyBulk, points: [2]int{8, 24},
		crashPoints: func(_ string, base ackLog, n int) []int64 {
			return drawPoints(20130423, base.setup, base.total, n)
		},
	},
	{
		name: "multi", policies: bothPolicies, mayFinish: true,
		config: func(policy string) apollo.Config {
			cfg := scriptConfig(policy)
			// The interleaving is nondeterministic anyway, so run the tuple
			// mover aggressively to put moves under the crash point too.
			cfg.TupleMoverInterval = 2 * time.Millisecond
			return cfg
		},
		run: runMulti, verify: verifyMulti, points: [2]int{4, 16},
		crashPoints: func(policy string, base ackLog, n int) []int64 {
			pts := append([]int64(nil), multiCrashPoints[policy]...)
			// Bias draws below the baseline extent so the armed crash
			// usually fires despite run-to-run WAL variance.
			hi := base.setup + 1 + (base.total-base.setup)*4/5
			return append(pts, drawPoints(20130623, base.setup, hi, n-len(pts))...)
		},
	},
	{
		name: "enospc", policies: []string{"always"},
		config: func(policy string) apollo.Config {
			cfg := scriptConfig(policy)
			// The degrade/recover cycle must complete inside the child's
			// lifetime, so probe aggressively.
			cfg.ProbeInterval = 5 * time.Millisecond
			return cfg
		},
		run: runEnospc, verify: verifyEnospc, points: [2]int{4, 16},
		crashPoints: func(_ string, base ackLog, n int) []int64 {
			return drawPoints(20130622, base.setup, base.total, n)
		},
	},
	{
		name: "poison", policies: []string{"always"}, config: scriptConfig,
		run: runPoison, verify: verifyPoison,
	},
}

// TestCrashMatrix runs every workload crash-free, then kills it at each of
// its crash points, and checks its oracle after every recovery. Subtests are
// named <workload>/fsync=<policy>/crashAt=<WAL offset>. Set
// APOLLO_CRASH_FULL=1 for the larger matrix.
func TestCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix spawns child processes; skipped in -short")
	}
	full := 0
	if os.Getenv("APOLLO_CRASH_FULL") != "" {
		full = 1
	}
	for _, w := range crashWorkloads {
		t.Run(w.name, func(t *testing.T) {
			for _, policy := range w.policies {
				t.Run("fsync="+policy, func(t *testing.T) {
					// The crash-free baseline must satisfy the oracle, and
					// its ack log places the crash points.
					baseDir := t.TempDir()
					if code := runChild(t, w.name, baseDir, 0, policy); code != 0 {
						t.Fatalf("baseline child crashed (exit %d)", code)
					}
					base := readAckLog(t, baseDir)
					if base.total <= base.setup+1 {
						t.Fatalf("degenerate WAL: %d total bytes, %d setup", base.total, base.setup)
					}
					w.verify(t, crashRun{dir: baseDir, policy: policy, clean: true, acks: base, base: base})
					if w.crashPoints == nil {
						return
					}
					ran, fired := 0, 0
					for _, at := range w.crashPoints(policy, base, w.points[full]) {
						if at <= base.setup {
							t.Fatalf("crash point %d lies inside the %d-byte setup prefix", at, base.setup)
						}
						t.Run(fmt.Sprintf("crashAt=%d", at), func(t *testing.T) {
							ran++
							dir := t.TempDir()
							code := runChild(t, w.name, dir, at, policy)
							switch {
							case code == 3:
								fired++
							case !w.mayFinish:
								t.Fatalf("child survived armed crash point %d (exit %d)", at, code)
							default:
								t.Logf("crash point %d not reached; verifying a clean run", at)
							}
							w.verify(t, crashRun{dir: dir, policy: policy, at: at, clean: code == 0,
								acks: readAckLog(t, dir), base: base})
						})
					}
					if ran > 0 && fired == 0 {
						t.Fatal("no crash point fired: the workload ends before all of them")
					}
				})
			}
		})
	}
}

// TestCrashMatrixRejectsMalformedChildInput: a typo in the child protocol
// must fail loudly instead of silently running without a crash point.
func TestCrashMatrixRejectsMalformedChildInput(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes; skipped in -short")
	}
	for _, tc := range []struct{ workload, at, policy, want string }{
		{"script", "12x", "always", "APOLLO_CRASH_AT"},
		{"script", "100", "sometimes", "fsync policy"},
		{"nosuch", "100", "always", "unknown workload"},
	} {
		out, err := crashChildCmd(tc.workload, t.TempDir(), tc.at, tc.policy).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(string(out), tc.want) {
			t.Errorf("child %s AT=%s FSYNC=%s: %v\n%s\nwant exit 1 naming %q",
				tc.workload, tc.at, tc.policy, err, out, tc.want)
		}
	}
}

// TestRecoveryRefusesMidLogCorruption flips a byte in the interior of the
// log: that is not a torn tail, and recovery must refuse with ErrCorrupt
// rather than silently replay a damaged history.
func TestRecoveryRefusesMidLogCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process; skipped in -short")
	}
	dir := t.TempDir()
	if code := runChild(t, "script", dir, 0, "always"); code != 0 {
		t.Fatalf("baseline child crashed (exit %d)", code)
	}
	// Find the newest WAL segment and damage a frame in its interior.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments found: %v", err)
	}
	seg := segs[len(segs)-1]
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) < 200 {
		t.Fatalf("segment too small to corrupt mid-file: %d bytes", len(buf))
	}
	buf[len(buf)/2] ^= 0x01
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = apollo.OpenDir(dir, scriptConfig("always"))
	if err == nil {
		t.Fatal("recovery accepted a corrupt log")
	}
	if !errors.Is(err, apollo.ErrCorrupt) || !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Fatalf("corruption error does not locate the damage: %v", err)
	}
}

// --- child side: one runner, one ack log ---

// crashChild is the child side of a run: the open database and its ack log.
type crashChild struct {
	db  *apollo.DB
	mu  sync.Mutex // multi-writer sessions ack concurrently
	log *os.File
}

// childFail reports an unexpected error and exits 1: the parent treats any
// exit other than 0 (finished) or 3 (armed crash fired) as a bug.
func childFail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crash child: "+format+"\n", args...)
	os.Exit(1)
}

// ack durably records one acknowledged unit with the WAL byte count at ack
// time. The line is fsynced before the workload goes on, so the log only
// ever under-counts acknowledged units, never invents one.
func (c *crashChild) ack(label string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := fmt.Fprintf(c.log, "%s %d\n", label, c.db.WALStats().TotalBytes)
	if err == nil {
		err = c.log.Sync()
	}
	if err != nil {
		childFail("ack %q: %v", label, err)
	}
}

// runCrashChild runs one workload per the child protocol and exits: 0 on
// completion, 3 when the armed crash fires (the WAL writer exits), 1 on an
// unexpected error or malformed input.
func runCrashChild(name string) {
	var w *crashWorkload
	for i := range crashWorkloads {
		if crashWorkloads[i].name == name {
			w = &crashWorkloads[i]
		}
	}
	if w == nil {
		childFail("unknown workload %q", name)
	}
	at, err := strconv.ParseInt(os.Getenv("APOLLO_CRASH_AT"), 10, 64)
	if err != nil || at < 0 {
		childFail("malformed APOLLO_CRASH_AT %q", os.Getenv("APOLLO_CRASH_AT"))
	}
	policy := os.Getenv("APOLLO_CRASH_FSYNC")
	if _, err := wal.ParsePolicy(policy); err != nil {
		childFail("APOLLO_CRASH_FSYNC: %v", err)
	}
	dir := os.Getenv("APOLLO_CRASH_DIR")
	cfg := w.config(policy)
	cfg.WALCrashAt = at
	db, err := apollo.OpenDir(dir, cfg)
	if err != nil {
		childFail("open: %v", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "acks"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		childFail("ack log: %v", err)
	}
	c := &crashChild{db: db, log: f}
	c.ack("open")
	w.run(c)
	c.ack("done")
	db.Close()
	os.Exit(0)
}

// --- parent side ---

// ackLine is one line of a child's ack log.
type ackLine struct {
	label string
	wal   int64 // WAL bytes written when the unit was acknowledged
}

// ackLog is a parsed ack log.
type ackLog struct {
	setup int64     // WAL bytes once the database was open and set up
	total int64     // WAL bytes at a clean finish; 0 if the child died
	units []ackLine // acknowledged units, in order
}

// readAckLog parses dir's ack log. A torn last line (the crash hit the
// append) is ignored.
func readAckLog(t *testing.T, dir string) ackLog {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "acks"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var l ackLog
	lines := strings.Split(string(b), "\n")
	for _, line := range lines[:len(lines)-1] { // the rest is empty or torn
		i := strings.LastIndexByte(line, ' ')
		n, err := strconv.ParseInt(line[i+1:], 10, 64)
		if i < 0 || err != nil {
			t.Fatalf("malformed ack log line %q", line)
		}
		switch a := (ackLine{label: line[:i], wal: n}); a.label {
		case "open", "setup":
			l.setup = a.wal
		case "done":
			l.total = a.wal
		default:
			l.units = append(l.units, a)
		}
	}
	return l
}

// crashRun is what an oracle knows about one child run.
type crashRun struct {
	dir, policy string
	at          int64  // armed crash offset; 0 for the crash-free baseline
	clean       bool   // the child ran to completion (exit 0)
	acks        ackLog // this run's ack log
	base        ackLog // the crash-free baseline's ack log
}

func (r crashRun) acked() int { return len(r.acks.units) }

// keepsAcked reports whether every acknowledged unit must survive: under
// fsync=always, or after a clean shutdown.
func (r crashRun) keepsAcked() bool { return r.policy == "always" || r.clean }

// crashChildCmd builds the command that runs workload as a crash child.
func crashChildCmd(workload, dir, at, policy string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"APOLLO_CRASH_CHILD="+workload,
		"APOLLO_CRASH_DIR="+dir,
		"APOLLO_CRASH_AT="+at,
		"APOLLO_CRASH_FSYNC="+policy,
	)
	return cmd
}

// runChild runs workload in a child against dir with the WAL armed to crash
// at byte offset at (0 = run to completion) and returns its exit code, 0 or
// 3. Any other outcome fails the test.
func runChild(t *testing.T, workload, dir string, at int64, policy string) int {
	t.Helper()
	out, err := crashChildCmd(workload, dir, strconv.FormatInt(at, 10), policy).CombinedOutput()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ee) && ee.ExitCode() == 3:
		return 3
	}
	t.Fatalf("child %s (crashAt=%d fsync=%s): %v\n%s", workload, at, policy, err, out)
	return -1
}

// drawPoints returns n seeded crash offsets in (lo, hi).
func drawPoints(seed, lo, hi int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]int64, n)
	for i := range pts {
		pts[i] = lo + 1 + rng.Int63n(hi-lo-1)
	}
	return pts
}

// recoverDB opens dir, which replays its WAL, and closes it after the test.
func recoverDB(t *testing.T, dir string, cfg apollo.Config) *apollo.DB {
	t.Helper()
	db, err := apollo.OpenDir(dir, cfg)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	t.Cleanup(db.Close)
	return db
}

// --- script: the single-writer trickle script, exact prefix oracle ---

// scriptOp is one operation of the single-writer script.
type scriptOp struct {
	kind string // "insert", "delete", "flush", "checkpoint"
	id   int64  // insert/delete operand
}

func (op scriptOp) label() string { return fmt.Sprintf("%s %d", op.kind, op.id) }

// crashScript is the deterministic workload the child executes and the
// parent simulates. Phases: trickle inserts (small row groups force delta
// closes and moves), deletes against both delta and compressed rows, an
// explicit flush, a mid-workload checkpoint, then a second wave of inserts
// and deletes so kill points land after the checkpoint too.
func crashScript() []scriptOp {
	var ops []scriptOp
	for i := int64(1); i <= 40; i++ {
		ops = append(ops, scriptOp{"insert", i})
	}
	ops = append(ops, scriptOp{kind: "flush"})
	for i := int64(2); i <= 20; i += 3 {
		ops = append(ops, scriptOp{"delete", i})
	}
	ops = append(ops, scriptOp{kind: "checkpoint"})
	for i := int64(41); i <= 70; i++ {
		ops = append(ops, scriptOp{"insert", i})
	}
	for i := int64(50); i <= 60; i += 2 {
		ops = append(ops, scriptOp{"delete", i})
	}
	ops = append(ops, scriptOp{kind: "flush"})
	for i := int64(71); i <= 80; i++ {
		ops = append(ops, scriptOp{"insert", i})
	}
	return ops
}

// midCheckpoint is the crash point one byte short of the WAL extent acked
// after the script's checkpoint: it tears the checkpoint-end record.
func midCheckpoint(base ackLog) int64 {
	for _, a := range base.units {
		if a.label == (scriptOp{kind: "checkpoint"}).label() {
			return a.wal - 1
		}
	}
	return 0
}

// scriptConfig is the database configuration of the script, enospc and
// poison workloads: tiny row groups so the workload exercises delta close,
// tuple moves and compressed groups; manual tuple mover so the op sequence
// is deterministic.
func scriptConfig(policy string) apollo.Config {
	cfg := apollo.DefaultConfig()
	cfg.TupleMoverInterval = 0
	cfg.RowGroupSize = 16
	cfg.BulkLoadThreshold = 1 << 20 // keep everything on the trickle path
	cfg.FsyncPolicy = policy
	return cfg
}

// insertK trickle-inserts one scripted row into table k.
func insertK(db *apollo.DB, id int64) error {
	t, err := db.Table("k")
	if err != nil {
		return err
	}
	return t.Insert(apollo.Row{apollo.NewInt(id), apollo.NewString(fmt.Sprintf("v-%d", id))})
}

// applyOp runs one op against db. Flushes and checkpoints are state-neutral;
// inserts and deletes change the logical table.
func applyOp(db *apollo.DB, op scriptOp) error {
	switch op.kind {
	case "insert":
		return insertK(db, op.id)
	case "delete":
		_, err := db.Exec(fmt.Sprintf("DELETE FROM k WHERE id = %d", op.id))
		return err
	case "flush":
		t, err := db.Table("k")
		if err != nil {
			return err
		}
		return t.Reorganize()
	case "checkpoint":
		if !db.Durable() {
			return nil
		}
		_, err := db.Checkpoint()
		return err
	default:
		return fmt.Errorf("unknown script op %q", op.kind)
	}
}

// checksum fingerprints table k's logical contents: SHA-256 over the sorted
// (id, v) pairs. Physical layout (delta vs compressed, group count) does
// not affect it.
func checksum(t *testing.T, db *apollo.DB) ([32]byte, int) {
	t.Helper()
	res, err := db.Query("SELECT id, v FROM k")
	if err != nil {
		t.Fatalf("checksum: %v", err)
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i][0].I < res.Rows[j][0].I })
	h := sha256.New()
	for _, r := range res.Rows {
		var idb [8]byte
		binary.LittleEndian.PutUint64(idb[:], uint64(r[0].I))
		h.Write(idb[:])
		h.Write([]byte(r[1].S))
		h.Write([]byte{0})
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, len(res.Rows)
}

// expectedChecksums simulates the script on an in-memory database: out[k]
// is the checksum after the first k operations (out[0] = empty table).
func expectedChecksums(t *testing.T) [][32]byte {
	t.Helper()
	db := apollo.Open(scriptConfig("always"))
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE k (id BIGINT, v VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	sum, _ := checksum(t, db)
	out := [][32]byte{sum}
	for _, op := range crashScript() {
		if err := applyOp(db, op); err != nil {
			t.Fatal(err)
		}
		sum, _ = checksum(t, db)
		out = append(out, sum)
	}
	return out
}

func runScript(c *crashChild) {
	if _, err := c.db.Exec("CREATE TABLE k (id BIGINT, v VARCHAR)"); err != nil {
		childFail("create: %v", err)
	}
	for i, op := range crashScript() {
		if err := applyOp(c.db, op); err != nil {
			childFail("op %d (%s): %v", i, op.label(), err)
		}
		c.ack(op.label())
	}
}

// verifyScript checks the committed-prefix property: the recovered table
// equals the state after exactly K scripted ops for some K, with no more
// than one op in flight beyond the acknowledged ones and, where acked ops
// must survive, none lost. A crash that tore the checkpoint-end record must
// recover from the durable checkpoint image.
func verifyScript(t *testing.T, r crashRun) {
	expected := expectedChecksums(t)
	db := recoverDB(t, r.dir, scriptConfig(r.policy))
	acked := r.acked()
	if _, err := db.Table("k"); err != nil {
		// The crash hit the CREATE TABLE record itself.
		if acked != 0 {
			t.Fatalf("table lost after %d acknowledged ops", acked)
		}
		return
	}
	sum, rows := checksum(t, db)
	k := len(expected) - 1
	for k >= 0 && expected[k] != sum {
		k--
	}
	if k < 0 {
		t.Fatalf("recovered state (%d rows) matches no prefix of the script — partial or reordered ops survived", rows)
	}
	if k > acked+1 {
		t.Fatalf("recovered prefix %d is ahead of acknowledged %d + one in-flight op", k, acked)
	}
	if k < acked {
		if r.keepsAcked() {
			t.Fatalf("fsync=%s lost acknowledged ops: recovered prefix %d < acknowledged %d", r.policy, k, acked)
		}
		t.Logf("fsync=%s lost %d acknowledged ops (allowed, bounded by flush interval)", r.policy, acked-k)
	}
	if r.at != 0 && r.at == midCheckpoint(r.base) {
		rec := db.RecoveryInfo()
		if rec.CheckpointSeq == 0 {
			t.Fatal("recovery ignored the durable checkpoint image")
		}
		if !rec.TruncatedTail {
			t.Fatal("the torn checkpoint-end record was not reported as a truncated tail")
		}
	}
}

// --- bulk: db.Load (the COPY pipeline), whole-group-or-none oracle ---
//
// Crash points land inside atomic group publishes. The workload is
// deterministic in WAL bytes (a fixed batch size fixes the flush sizes;
// serial column builds fix blob allocation order):
//
//   - bulkRounds direct rounds load exactly bulkGroupRows rows each — at or
//     above the bulk threshold, so each round is one atomic TGroupPublish.
//   - bulkDeltaBatches fallback batches load bulkDeltaBatch rows each —
//     below the threshold, so they take the batched delta-insert path and
//     may legitimately survive partially (row granularity, in input order).
//   - ids are loaded in one contiguous ascending sequence, so the recovered
//     id set must be exactly [0, N) for some N.
//   - each round or batch is acked after Load returns.

const (
	bulkGroupRows    = 64 // rows per direct round == one published row group
	bulkRounds       = 12 // direct rounds (768 rows compressed)
	bulkDeltaBatch   = 24 // rows per fallback batch, below the threshold
	bulkDeltaBatches = 6  // fallback batches (144 delta rows)
)

// bulkRowsAfter returns how many rows exist after n completed units.
func bulkRowsAfter(n int) int {
	direct := min(n, bulkRounds)
	return direct*bulkGroupRows + (n-direct)*bulkDeltaBatch
}

// bulkConfig sizes row groups to one direct round, puts the threshold
// between the two batch sizes so both ingest paths run, and builds columns
// serially so the WAL byte stream is identical across runs.
func bulkConfig(policy string) apollo.Config {
	cfg := apollo.DefaultConfig()
	cfg.TupleMoverInterval = 0
	cfg.RowGroupSize = bulkGroupRows
	cfg.BulkLoadThreshold = bulkDeltaBatch * 2
	cfg.Parallel = 1
	cfg.FsyncPolicy = policy
	return cfg
}

func runBulk(c *crashChild) {
	if _, err := c.db.Exec("CREATE TABLE bl (id BIGINT, v VARCHAR)"); err != nil {
		childFail("create: %v", err)
	}
	c.ack("setup")
	load := func(lo int64, rows int) *apollo.LoadResult {
		var sb strings.Builder
		for id := lo; id < lo+int64(rows); id++ {
			fmt.Fprintf(&sb, "%d,v-%d\n", id, id)
		}
		res, err := c.db.Load(context.Background(), apollo.LoadOptions{
			Table:     "bl",
			Format:    "csv",
			Reader:    strings.NewReader(sb.String()),
			BatchRows: rows, // fixed: keeps the flush sizes (and WAL) deterministic
		})
		if err != nil {
			childFail("load [%d,%d): %v", lo, lo+int64(rows), err)
		}
		return res
	}
	for r := 0; r < bulkRounds; r++ {
		res := load(int64(r*bulkGroupRows), bulkGroupRows)
		if res.RowsDirect != bulkGroupRows || res.Groups != 1 {
			childFail("round %d took the wrong path: %d direct in %d groups, want %d in 1",
				r, res.RowsDirect, res.Groups, bulkGroupRows)
		}
		c.ack(fmt.Sprintf("round %d", r))
	}
	for b := 0; b < bulkDeltaBatches; b++ {
		res := load(int64(bulkRounds*bulkGroupRows+b*bulkDeltaBatch), bulkDeltaBatch)
		if res.RowsDelta != bulkDeltaBatch {
			childFail("batch %d took the wrong path: %d delta, want %d", b, res.RowsDelta, bulkDeltaBatch)
		}
		c.ack(fmt.Sprintf("batch %d", b))
	}
}

// verifyBulk recovers a bulk run and asserts the structural invariants that
// hold at any crash point, then bounds the row count by the acked units:
//
//   - the recovered ids are exactly [0, N): the loader fed one contiguous
//     ascending sequence, group publishes are atomic, and WAL replay is
//     ordered, so there are never holes or duplicates;
//   - the compressed portion is whole groups only: CompressedRows is a
//     multiple of the group size and never exceeds the direct phase — a torn
//     TGroupPublish must vanish entirely, not surface as a partial group;
//   - physical placement survives recovery: direct rows are compressed,
//     fallback rows are delta (the tuple mover is off, so nothing migrates).
func verifyBulk(t *testing.T, r crashRun) {
	db := recoverDB(t, r.dir, bulkConfig(r.policy))
	acked := r.acked()
	tb, err := db.Table("bl")
	if err != nil {
		if acked != 0 {
			t.Fatalf("table lost after %d acknowledged load calls", acked)
		}
		return
	}
	res, err := db.Query("SELECT id FROM bl")
	if err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
	ids := make([]int64, 0, len(res.Rows))
	for _, row := range res.Rows {
		ids = append(ids, row[0].I)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("recovered ids are not a contiguous prefix: ids[%d] = %d (a hole means a torn group or reordered replay)", i, id)
		}
	}
	n := len(ids)
	directRows := bulkRounds * bulkGroupRows
	wantCompressed := min(n, directRows)
	st := tb.Stats()
	if st.CompressedRows%bulkGroupRows != 0 {
		t.Fatalf("torn row group survived recovery: %d compressed rows is not a multiple of %d",
			st.CompressedRows, bulkGroupRows)
	}
	if st.CompressedRows != wantCompressed {
		t.Fatalf("direct-path rows not recovered as compressed groups: %d compressed, want %d (of %d total)",
			st.CompressedRows, wantCompressed, n)
	}
	if st.DeltaRows != n-wantCompressed {
		t.Fatalf("delta fallback rows misplaced after recovery: %d delta, want %d (of %d total)",
			st.DeltaRows, n-wantCompressed, n)
	}
	if n <= directRows && n%bulkGroupRows != 0 {
		t.Fatalf("recovered %d rows inside the direct phase — not a whole number of %d-row groups",
			n, bulkGroupRows)
	}
	// At most one load call was in flight beyond the acknowledged count.
	if ceil := bulkRowsAfter(acked + 1); n > ceil {
		t.Fatalf("recovered %d rows, ahead of %d acknowledged calls + one in flight (max %d)", n, acked, ceil)
	}
	if floor := bulkRowsAfter(acked); r.keepsAcked() && n < floor {
		t.Fatalf("fsync=%s lost acknowledged loads: recovered %d rows < %d acknowledged", r.policy, n, floor)
	}
}

// --- multi: concurrent transactional sessions, atomicity oracle ---
//
// multiSessions sessions run snapshot-isolation transactions against two
// tables. The interleaving is nondeterministic, so the oracle checks
// invariants rather than prefix checksums:
//
//   - table mw (sess, txid, part): each transaction inserts parts {0,1,2}
//     for its (sess, txid) — a committed group has exactly 3 rows, never 1
//     or 2 (no torn transactions).
//   - table ctr (id, n): 4 seeded rows; each transaction increments one,
//     so sum(n) equals the number of committed mw groups (cross-table
//     atomicity) and contention on the 4 rows exercises first-writer-wins
//     conflicts and retries.
//   - transactions with txid%5 == 4 roll back deliberately and must never
//     surface.
//   - a commit is acked only after Commit returns; where acked units must
//     survive, every acked group is recovered.

const (
	multiSessions = 4
	// multiCap bounds each session's transaction count so crash-free runs
	// terminate; armed crash points fire long before.
	multiCap = 150
)

// multiCrashPoints are the fixed WAL byte offsets every run crashes at, per
// fsync policy. Deriving them from the baseline's WAL extent would rename
// the subtests on every run, since that extent depends on how the sessions
// interleave. The workload writes a 179-byte setup prefix and roughly
// 125-155 KB of WAL in total, so these land early, mid and late.
var multiCrashPoints = map[string][]int64{
	"always":   {29521, 44425, 79094, 115235},
	"interval": {7857, 17284, 46755, 58577},
}

func runMulti(c *crashChild) {
	for _, stmt := range []string{
		"CREATE TABLE mw (sess BIGINT, txid BIGINT, part BIGINT)",
		"CREATE TABLE ctr (id BIGINT, n BIGINT)",
		"INSERT INTO ctr VALUES (0, 0)",
		"INSERT INTO ctr VALUES (1, 0)",
		"INSERT INTO ctr VALUES (2, 0)",
		"INSERT INTO ctr VALUES (3, 0)",
	} {
		if _, err := c.db.Exec(stmt); err != nil {
			childFail("setup %q: %v", stmt, err)
		}
	}
	c.ack("setup")
	ctx := context.Background()
	var wg sync.WaitGroup
	for s := int64(0); s < multiSessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(s*7919 + 1))
			for txid := int64(0); txid < multiCap; txid++ {
			retry:
				tx, err := c.db.Begin(ctx)
				if err != nil {
					childFail("session %d begin: %v", s, err)
				}
				for part := int64(0); part < 3; part++ {
					if _, err := tx.Exec(fmt.Sprintf("INSERT INTO mw VALUES (%d, %d, %d)", s, txid, part)); err != nil {
						childFail("session %d insert: %v", s, err)
					}
				}
				// Contended increment: first-writer-wins may abort us; retry
				// the whole transaction from Begin.
				if _, err := tx.Exec(fmt.Sprintf("UPDATE ctr SET n = n + 1 WHERE id = %d", rng.Intn(4))); err != nil {
					if errors.Is(err, apollo.ErrWriteConflict) {
						goto retry
					}
					childFail("session %d update: %v", s, err)
				}
				if txid%5 == 4 {
					if err := tx.Rollback(ctx); err != nil {
						childFail("session %d rollback: %v", s, err)
					}
					continue
				}
				if err := tx.Commit(ctx); err != nil {
					childFail("session %d commit: %v", s, err)
				}
				c.ack(fmt.Sprintf("commit %d %d", s, txid))
			}
		}()
	}
	wg.Wait()
}

// verifyMulti recovers a multi-writer run and checks the transactional
// invariants listed above.
func verifyMulti(t *testing.T, r crashRun) {
	db := recoverDB(t, r.dir, scriptConfig(r.policy))
	res, err := db.Query("SELECT sess, txid, part FROM mw")
	if err != nil {
		t.Fatalf("mw after recovery: %v", err)
	}
	type key struct{ sess, txid int64 }
	groups := map[key]map[int64]bool{}
	for _, row := range res.Rows {
		k := key{row[0].I, row[1].I}
		if groups[k] == nil {
			groups[k] = map[int64]bool{}
		}
		if groups[k][row[2].I] {
			t.Fatalf("duplicate row (%d,%d,%d)", k.sess, k.txid, row[2].I)
		}
		groups[k][row[2].I] = true
	}
	for k, parts := range groups {
		if len(parts) != 3 || !parts[0] || !parts[1] || !parts[2] {
			t.Fatalf("torn transaction: group (%d,%d) has parts %v, want {0,1,2}", k.sess, k.txid, parts)
		}
		if k.txid%5 == 4 {
			t.Fatalf("rolled-back transaction (%d,%d) resurrected", k.sess, k.txid)
		}
	}

	res, err = db.Query("SELECT id, n FROM ctr")
	if err != nil {
		t.Fatalf("ctr after recovery: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("ctr has %d rows, want 4", len(res.Rows))
	}
	var sum int64
	for _, row := range res.Rows {
		if row[1].I < 0 {
			t.Fatalf("ctr id %d went negative: %d", row[0].I, row[1].I)
		}
		sum += row[1].I
	}
	if sum != int64(len(groups)) {
		t.Fatalf("cross-table atomicity broken: ctr sum %d != %d committed groups", sum, len(groups))
	}

	lost := 0
	for _, a := range r.acks.units {
		var k key
		if _, err := fmt.Sscanf(a.label, "commit %d %d", &k.sess, &k.txid); err != nil {
			t.Fatalf("ack %q: %v", a.label, err)
		}
		if _, ok := groups[k]; !ok {
			if r.keepsAcked() {
				t.Fatalf("fsync=%s lost acknowledged commit (%d,%d)", r.policy, k.sess, k.txid)
			}
			lost++
		}
	}
	if lost > 0 {
		t.Logf("fsync=%s lost %d acknowledged commits (allowed)", r.policy, lost)
	}
	if r.clean && len(groups) != r.acked() {
		t.Fatalf("crash-free run: %d committed groups != %d acknowledged", len(groups), r.acked())
	}
	t.Logf("recovered %d committed groups", len(groups))
}

// --- enospc and poison: fail-stop durability, contiguous prefix oracle ---
//
// Both workloads insert sequential ids into table k and ack each insert, so
// the recovered table must hold exactly the contiguous prefix 1..K for some
// K >= acked: zero acked loss, no false acks, no holes. Their faults come
// from the WAL's deterministic injector (InjectWALFaults).

// enospcAckedBefore is how many inserts both workloads ack before their
// fault; enospcTotal is the enospc run's length after recovery.
const (
	enospcAckedBefore = 20
	enospcTotal       = 60
)

// insertAcked inserts ids lo..hi into table k, acking each.
func insertAcked(c *crashChild, lo, hi int64) {
	for i := lo; i <= hi; i++ {
		if err := insertK(c.db, i); err != nil {
			childFail("insert %d: %v", i, err)
		}
		c.ack(fmt.Sprintf("insert %d", i))
	}
}

// runEnospc scripts the disk-full degradation cycle: 20 acked inserts, then
// ENOSPC on every further WAL append, a write that must be rejected with the
// typed read-only error (and not acked), reads that keep working, then space
// "returns" and the auto-probe must restore writes without reopening the
// DB — continuing to 60 acked inserts.
func runEnospc(c *crashChild) {
	db := c.db
	if _, err := db.Exec("CREATE TABLE k (id BIGINT, v VARCHAR)"); err != nil {
		childFail("create: %v", err)
	}
	insertAcked(c, 1, enospcAckedBefore)

	db.InjectWALFaults(apollo.WALFaults{AppendNoSpaceAt: 1})
	err := insertK(db, enospcAckedBefore+1)
	if err == nil {
		childFail("insert succeeded with disk full — false ack")
	}
	if !apollo.IsReadOnlyError(err) {
		childFail("disk-full insert: got %v, want typed read-only error", err)
	}
	res, err := db.Exec("SELECT COUNT(*) FROM k")
	if err != nil {
		childFail("read while read-only: %v", err)
	}
	if n := res.Rows[0][0].I; n != enospcAckedBefore {
		childFail("read while read-only: count %d, want %d", n, enospcAckedBefore)
	}

	// Space returns; the probe must flip writes back on without a reopen.
	db.ClearWALFaults()
	deadline := time.Now().Add(10 * time.Second)
	for i := int64(enospcAckedBefore + 1); i <= enospcTotal; i++ {
		for err := insertK(db, i); err != nil; err = insertK(db, i) {
			if !apollo.IsReadOnlyError(err) {
				childFail("insert %d during recovery: %v", i, err)
			}
			if time.Now().After(deadline) {
				childFail("writes never recovered after clearing disk-full")
			}
			time.Sleep(2 * time.Millisecond)
		}
		c.ack(fmt.Sprintf("insert %d", i))
	}
	if h := db.Health(); h.Mode != apollo.ModeHealthy || h.Recovered < 1 {
		childFail("health after recovery: mode %v recovered %d", h.Mode, h.Recovered)
	}
}

// runPoison scripts the fsync-failure fail-stop: 20 acked inserts, then the
// next fsync fails. The in-flight insert must be rejected (not acked) and
// the writer permanently poisoned: later writes fail fast with the typed
// poison error, clearing the injection does not revive them, and reads keep
// serving what is already durable.
func runPoison(c *crashChild) {
	db := c.db
	if _, err := db.Exec("CREATE TABLE k (id BIGINT, v VARCHAR)"); err != nil {
		childFail("create: %v", err)
	}
	insertAcked(c, 1, enospcAckedBefore)

	db.InjectWALFaults(apollo.WALFaults{FailSyncAt: 1})
	if err := insertK(db, enospcAckedBefore+1); err == nil {
		childFail("insert acked through a failed fsync")
	} else if !apollo.IsPoisonedError(err) {
		childFail("failed-fsync insert: got %v, want typed poison error", err)
	}
	// Poison is permanent: clearing the injection must not revive the writer.
	db.ClearWALFaults()
	if err := insertK(db, enospcAckedBefore+2); !apollo.IsPoisonedError(err) {
		childFail("insert after poison: got %v, want typed poison error", err)
	}
	res, err := db.Exec("SELECT COUNT(*) FROM k")
	if err != nil {
		childFail("read on poisoned db: %v", err)
	}
	if n := res.Rows[0][0].I; n != enospcAckedBefore {
		childFail("read on poisoned db: count %d, want %d", n, enospcAckedBefore)
	}
	if h := db.Health(); h.Mode != apollo.ModePoisoned || !h.WAL.Poisoned {
		childFail("health after poison: mode %v wal-poisoned %v", h.Mode, h.WAL.Poisoned)
	}
}

// contiguousPrefix checks that table k holds exactly ids 1..K for some K
// (no holes, no duplicates) with acked <= K <= hi, and returns K.
func contiguousPrefix(t *testing.T, db *apollo.DB, acked, hi int) int {
	t.Helper()
	res, err := db.Exec("SELECT COUNT(*), MIN(id), MAX(id), COUNT(DISTINCT id) FROM k")
	if err != nil {
		t.Fatal(err)
	}
	count := res.Rows[0][0].I
	if count == 0 {
		if acked > 0 {
			t.Fatalf("empty table after %d acked inserts", acked)
		}
		return 0
	}
	minID, maxID, distinct := res.Rows[0][1].I, res.Rows[0][2].I, res.Rows[0][3].I
	if minID != 1 || maxID != count || distinct != count {
		t.Fatalf("recovered ids are not a contiguous 1..K prefix: count=%d min=%d max=%d distinct=%d",
			count, minID, maxID, distinct)
	}
	k := int(count)
	if k < acked {
		t.Fatalf("acked loss: recovered prefix %d < acked %d", k, acked)
	}
	if k > hi {
		t.Fatalf("phantom rows: recovered prefix %d > maximum scripted %d", k, hi)
	}
	return k
}

// verifyEnospc: at every kill point across the degrade/recover cycle the
// recovered table is the contiguous prefix 1..K with K >= acked.
func verifyEnospc(t *testing.T, r crashRun) {
	db := recoverDB(t, r.dir, scriptConfig(r.policy))
	if _, err := db.Table("k"); err != nil {
		if r.acked() != 0 {
			t.Fatalf("table lost after %d acked inserts", r.acked())
		}
		return // crash hit the CREATE TABLE record itself
	}
	contiguousPrefix(t, db, r.acked(), enospcTotal)
}

// verifyPoison: every acked insert survives, and the poisoned, never-acked
// insert may appear at most as the next contiguous id (its bytes may have
// reached the disk even though the fsync failed) — never anything beyond.
// The recovered database is a fresh writer, so writes work again.
func verifyPoison(t *testing.T, r crashRun) {
	if r.acked() != enospcAckedBefore {
		t.Fatalf("child acked %d inserts, want %d", r.acked(), enospcAckedBefore)
	}
	db := recoverDB(t, r.dir, scriptConfig(r.policy))
	k := contiguousPrefix(t, db, r.acked(), r.acked()+1)
	if err := insertK(db, int64(k+1)); err != nil {
		t.Fatalf("insert after restart: %v", err)
	}
	if h := db.Health(); h.Mode != apollo.ModeHealthy {
		t.Fatalf("restarted database health: %v", h.Mode)
	}
}

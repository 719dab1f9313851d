package apollo_test

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"apollo"
	"apollo/internal/wal/crashtest"
)

// verifyMultiWriter recovers a multi-writer crash directory and checks the
// transactional invariants (see the multi-writer mode comment in package
// crashtest): committed transactions are atomic (3 mw rows per group, the
// ctr sum matches the group count), deliberate rollbacks never surface, and
// under fsync=always every acknowledged commit survived. Returns the number
// of committed groups.
func verifyMultiWriter(t *testing.T, dir, policy string) int {
	t.Helper()
	db, err := apollo.OpenDir(dir, crashtest.Config(policy))
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer db.Close()

	res, err := db.Query("SELECT sess, txid, part FROM mw")
	if err != nil {
		t.Fatalf("mw after recovery: %v", err)
	}
	type key struct{ sess, txid int64 }
	groups := map[key]map[int64]bool{}
	for _, r := range res.Rows {
		k := key{r[0].I, r[1].I}
		if groups[k] == nil {
			groups[k] = map[int64]bool{}
		}
		if groups[k][r[2].I] {
			t.Fatalf("duplicate row (%d,%d,%d)", k.sess, k.txid, r[2].I)
		}
		groups[k][r[2].I] = true
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
	for _, r := range res.Rows {
		if r[1].I < 0 {
			t.Fatalf("ctr id %d went negative: %d", r[0].I, r[1].I)
		}
		sum += r[1].I
	}
	if sum != int64(len(groups)) {
		t.Fatalf("cross-table atomicity broken: ctr sum %d != %d committed groups", sum, len(groups))
	}

	acks, err := crashtest.ReadAcks(dir)
	if err != nil {
		t.Fatal(err)
	}
	if policy == "always" {
		for _, a := range acks {
			if _, ok := groups[key{a.Sess, a.Txid}]; !ok {
				t.Fatalf("fsync=always lost acknowledged commit (%d,%d)", a.Sess, a.Txid)
			}
		}
	} else {
		lost := 0
		for _, a := range acks {
			if _, ok := groups[key{a.Sess, a.Txid}]; !ok {
				lost++
			}
		}
		if lost > 0 {
			t.Logf("fsync=%s lost %d acknowledged commits (allowed)", policy, lost)
		}
	}
	return len(groups)
}

// multiWriterCrashPoints are the fixed WAL byte offsets every run of
// TestMultiWriterCrashMatrix crashes at, per fsync policy. Deriving them from
// the baseline run's WAL extent would rename the subtests on every run, since
// that extent depends on how the concurrent sessions interleave. The 4-session
// workload writes a 179-byte setup prefix and roughly 125-155 KB of WAL in
// total, so these land early, mid and late in the transactional stream.
var multiWriterCrashPoints = map[string][]int64{
	"always":   {29521, 44425, 79094, 115235},
	"interval": {7857, 17284, 46755, 58577},
}

// TestMultiWriterCrashMatrix runs N concurrent transactional sessions in a
// child process, kills it at fixed WAL byte offsets, and verifies that
// recovery keeps committed transactions atomic across both tables while
// uncommitted and rolled-back transactions vanish. Set APOLLO_CRASH_FULL=1
// to add randomized offsets for a 16-point matrix (4 fixed ones by default).
func TestMultiWriterCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix spawns child processes; skipped in -short")
	}
	const sessions = 4
	env := fmt.Sprintf("APOLLO_CRASH_MULTI=%d", sessions)
	points := 4
	if os.Getenv("APOLLO_CRASH_FULL") != "" {
		points = 16
	}
	for _, policy := range []string{"always", "interval"} {
		t.Run("fsync="+policy, func(t *testing.T) {
			// Baseline crash-free run: learn the WAL extent and check that a
			// clean shutdown preserves exactly the committed transactions.
			base := t.TempDir()
			if code := runChild(t, base, 0, policy, env); code != 0 {
				t.Fatalf("baseline child crashed (exit %d)", code)
			}
			total, err := crashtest.ReadWALTotal(base)
			if err != nil {
				t.Fatal(err)
			}
			setup, err := crashtest.ReadSetupBytes(base)
			if err != nil {
				t.Fatal(err)
			}
			baseAcks, err := crashtest.ReadAcks(base)
			if err != nil {
				t.Fatal(err)
			}
			if got := verifyMultiWriter(t, base, policy); got != len(baseAcks) {
				t.Fatalf("crash-free run: %d committed groups != %d acknowledged", got, len(baseAcks))
			}

			crashPoints := append([]int64(nil), multiWriterCrashPoints[policy]...)
			rng := rand.New(rand.NewSource(20130623)) // deterministic matrix
			for len(crashPoints) < points {
				// Stay above the (deterministic) setup so both tables exist in
				// every recovered state; bias below the baseline extent so the
				// armed crash usually fires despite run-to-run WAL variance.
				span := (total - setup) * 4 / 5
				crashPoints = append(crashPoints, setup+1+rng.Int63n(span))
			}
			for _, crashAt := range crashPoints {
				if crashAt <= setup {
					t.Fatalf("crash point %d lies inside the %d-byte setup prefix", crashAt, setup)
				}
				t.Run(fmt.Sprintf("crashAt=%d", crashAt), func(t *testing.T) {
					dir := t.TempDir()
					code := runChild(t, dir, crashAt, policy, env)
					if code != 3 {
						// This run wrote less WAL than the baseline and ended
						// before the crash point; still a valid clean-run check.
						t.Logf("crash point %d not reached (exit %d); verifying clean run", crashAt, code)
					}
					groups := verifyMultiWriter(t, dir, policy)
					t.Logf("recovered %d committed groups", groups)
				})
			}
		})
	}
}

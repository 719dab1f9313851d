package apollo_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"apollo"
)

// The scrub sweep: load a table large enough that a scrub pass does real
// work, then run one unpaced pass and paced passes at two byte budgets while
// a foreground query loop runs against the same table. Gates (`make
// scrub-smoke`): pacing must actually pace, clean data must report clean,
// and no concurrent query may fail.

type scrubBenchLeg struct {
	Bytes   int64
	Seconds float64
}

func scrubBenchLoad(t *testing.T, db *apollo.DB, rows int) {
	t.Helper()
	var sb strings.Builder
	sb.Grow(rows * 24)
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,%d,scrub-bench-value-%d\n", i, i%97, i%503)
	}
	if _, err := db.Exec("CREATE TABLE sb (id BIGINT, grp BIGINT, v VARCHAR) WITH (rowgroup_size=8192, bulk_threshold=4096)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Load(context.Background(), apollo.LoadOptions{Table: "sb", Reader: strings.NewReader(sb.String())})
	if err != nil || res.RowsLoaded != rows {
		t.Fatalf("bench load: %d rows, err %v", res.RowsLoaded, err)
	}
}

// runScrubLeg runs one pass at the given budget with a foreground query loop
// and returns the bytes verified and the pass's wall time.
func runScrubLeg(t *testing.T, db *apollo.DB, bps int64) scrubBenchLeg {
	t.Helper()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Query("SELECT COUNT(*), SUM(grp) FROM sb WHERE id % 7 = 0"); err != nil {
				t.Errorf("concurrent query failed during scrub: %v", err)
				return
			}
		}
	}()

	sc := apollo.ScrubOptions{BytesPerSec: bps}
	start := time.Now()
	rep, err := db.ScrubWith(context.Background(), sc)
	secs := time.Since(start).Seconds()
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 0 || rep.RepairedBacking != 0 || rep.RepairedMemory != 0 {
		t.Fatalf("clean data reported damage: %+v", rep)
	}
	return scrubBenchLeg{Bytes: rep.Bytes, Seconds: secs}
}

func TestScrubSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("scrub sweep loads 200k rows; skipped in -short")
	}
	cfg := apollo.DefaultConfig()
	cfg.TupleMoverInterval = 0
	cfg.FsyncPolicy = "off" // exercise verification, not the disk
	cfg.ScrubInterval = 0
	db, err := apollo.OpenDir(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	scrubBenchLoad(t, db, 200_000)

	// Leg 1 — unpaced: CRC-verify every at-rest copy at full speed.
	runScrubLeg(t, db, -1) // negative = no pacing

	// Legs 2, 3 — paced at budgets well below raw throughput. The gate: a
	// paced pass must take at least half its nominal time (i.e. the limiter
	// is real, not decorative).
	for _, bps := range []int64{64 << 20, 16 << 20} {
		leg := runScrubLeg(t, db, bps)
		nominal := float64(leg.Bytes) / float64(bps)
		if leg.Seconds < nominal/2 {
			t.Fatalf("pass at %d MB/s over %d bytes took %.3fs, nominal %.3fs — pacing not applied",
				bps>>20, leg.Bytes, leg.Seconds, nominal)
		}
	}
}

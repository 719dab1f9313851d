package apollo_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"apollo"
)

func durableCfg() apollo.Config {
	cfg := apollo.DefaultConfig()
	cfg.TupleMoverInterval = 0
	cfg.RowGroupSize = 8
	cfg.FsyncPolicy = "always"
	return cfg
}

func tableIDs(t *testing.T, db *apollo.DB, table string) []int64 {
	t.Helper()
	res, err := db.Query("SELECT id FROM " + table + " ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, len(res.Rows))
	for i, r := range res.Rows {
		ids[i] = r[0].I
	}
	return ids
}

// TestDurableRoundTrip: everything acknowledged before Close survives a
// reopen — delta rows, compressed groups, deletes against both, and DDL.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := apollo.OpenDir(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE r (id BIGINT, region VARCHAR, amount DOUBLE)")
	for i := 1; i <= 20; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO r VALUES (%d, 'reg-%d', %d.5)", i, i%3, i))
	}
	tb, err := db.Table("r")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Reorganize(); err != nil {
		t.Fatal(err)
	}
	db.MustExec("DELETE FROM r WHERE id = 7") // compressed row
	db.MustExec("INSERT INTO r VALUES (21, 'reg-0', 21.5)")
	db.MustExec("DELETE FROM r WHERE id = 21") // delta row
	want := tableIDs(t, db, "r")
	stats := tb.Stats()
	if stats.CompressedGroups == 0 {
		t.Fatal("workload produced no compressed groups; test is not exercising publish replay")
	}
	db.Close()

	db2, err := apollo.OpenDir(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got := tableIDs(t, db2, "r")
	if len(got) != len(want) {
		t.Fatalf("row count changed across restart: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: got id %d, want %d", i, got[i], want[i])
		}
	}
	rec := db2.RecoveryInfo()
	if rec.ReplayedRecords == 0 {
		t.Fatal("reopen replayed no WAL records")
	}
	if rec.TruncatedTail {
		t.Fatal("clean shutdown flagged a torn tail")
	}
	// Aggregates read through the recovered compressed segments.
	res, err := db2.Query("SELECT SUM(amount) FROM r WHERE id <= 20")
	if err != nil {
		t.Fatal(err)
	}
	wantSum := 0.0
	for i := 1; i <= 20; i++ {
		if i != 7 {
			wantSum += float64(i) + 0.5
		}
	}
	if got := res.Rows[0][0].F; got != wantSum {
		t.Fatalf("SUM(amount) after recovery: got %v, want %v", got, wantSum)
	}
}

// TestCheckpointTruncatesWAL: a checkpoint bounds replay — segments below
// the replay point are deleted and the next recovery replays only records
// logged after the checkpoint.
func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := apollo.OpenDir(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE c (id BIGINT, v VARCHAR)")
	for i := 1; i <= 50; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO c VALUES (%d, 'v%d')", i, i))
	}
	seq, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if seq == 0 {
		t.Fatal("checkpoint returned seq 0")
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		var got uint64
		if _, err := fmt.Sscanf(filepath.Base(s), "%d.wal", &got); err == nil && got < seq {
			t.Fatalf("segment %s survived checkpoint at seq %d", s, seq)
		}
	}
	if m, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt")); err != nil || len(m) != 1 {
		t.Fatalf("want exactly one checkpoint image, got %v (%v)", m, err)
	}
	db.MustExec("INSERT INTO c VALUES (51, 'post')")
	db.Close()

	db2, err := apollo.OpenDir(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rec := db2.RecoveryInfo()
	if rec.CheckpointSeq != seq {
		t.Fatalf("recovery used checkpoint seq %d, want %d", rec.CheckpointSeq, seq)
	}
	// Only the post-checkpoint insert (plus checkpoint markers) should replay
	// — far fewer than the 50 pre-checkpoint inserts.
	if rec.ReplayedRecords > 10 {
		t.Fatalf("checkpoint did not bound replay: %d records replayed", rec.ReplayedRecords)
	}
	if got := tableIDs(t, db2, "c"); len(got) != 51 {
		t.Fatalf("got %d rows after checkpointed recovery, want 51", len(got))
	}
}

// TestTornTailTruncatedSilently: garbage appended to the last segment (a
// torn write's signature) is dropped without error and flagged in the
// recovery summary; all complete records survive.
func TestTornTailTruncatedSilently(t *testing.T) {
	dir := t.TempDir()
	db, err := apollo.OpenDir(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE tt (id BIGINT, v VARCHAR)")
	for i := 1; i <= 10; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO tt VALUES (%d, 'v%d')", i, i))
	}
	db.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible-length prefix with a body that never arrived.
	if _, err := f.Write([]byte{40, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2, err := apollo.OpenDir(dir, durableCfg())
	if err != nil {
		t.Fatalf("torn tail should recover silently, got %v", err)
	}
	defer db2.Close()
	if !db2.RecoveryInfo().TruncatedTail {
		t.Fatal("torn tail not reported in recovery summary")
	}
	if got := tableIDs(t, db2, "tt"); len(got) != 10 {
		t.Fatalf("got %d rows, want 10", len(got))
	}

	// The repair was physical: a third open sees a clean log.
	db3, err := apollo.OpenDir(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if db3.RecoveryInfo().TruncatedTail {
		t.Fatal("tail repair did not persist; second recovery saw the tear again")
	}
}

// TestDurabilityMetrics: the WAL and recovery counters the observability
// layer promises actually move.
func TestDurabilityMetrics(t *testing.T) {
	dir := t.TempDir()
	db, err := apollo.OpenDir(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	before := db.MetricsSnapshot()
	db.MustExec("CREATE TABLE m (id BIGINT)")
	for i := 0; i < 5; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO m VALUES (%d)", i))
	}
	after := db.MetricsSnapshot()
	for _, name := range []string{"apollo_wal_appends_total", "apollo_wal_bytes_total", "apollo_wal_fsyncs_total"} {
		if after[name] <= before[name] {
			t.Errorf("%s did not increase (%v -> %v)", name, before[name], after[name])
		}
	}
	db.Close()

	db2, err := apollo.OpenDir(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	post := db2.MetricsSnapshot()
	if post["apollo_recovery_replayed_records_total"] <= after["apollo_recovery_replayed_records_total"] {
		t.Error("apollo_recovery_replayed_records_total did not increase across recovery")
	}
}

// TestInMemoryUnaffected: Open (no dir) still works with durability compiled
// in — no WAL, checkpoint refused, zero recovery info.
func TestInMemoryUnaffected(t *testing.T) {
	db := apollo.Open(apollo.DefaultConfig())
	defer db.Close()
	if db.Durable() {
		t.Fatal("in-memory DB claims durability")
	}
	if _, err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint on in-memory DB did not error")
	}
	db.MustExec("CREATE TABLE x (id BIGINT)")
	db.MustExec("INSERT INTO x VALUES (1)")
	if got := db.WALStats(); got.TotalBytes != 0 {
		t.Fatalf("in-memory DB wrote WAL bytes: %+v", got)
	}
}

// TestDropTableDurable: DDL replays — a dropped table stays dropped.
func TestDropTableDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := apollo.OpenDir(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE gone (id BIGINT)")
	db.MustExec("INSERT INTO gone VALUES (1)")
	db.MustExec("CREATE TABLE kept (id BIGINT)")
	db.MustExec("INSERT INTO kept VALUES (2)")
	db.MustExec("DROP TABLE gone")
	db.Close()

	db2, err := apollo.OpenDir(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Table("gone"); err == nil {
		t.Fatal("dropped table resurrected by recovery")
	}
	if got := tableIDs(t, db2, "kept"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("kept table damaged: %v", got)
	}
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	"apollo"
	"apollo/internal/workload"
)

// ssbScan is the read workload that fits the cache: an embedded in-memory
// database holding SSB at SF 10 (600k fact rows in ~19 compressed row
// groups, buffer pool larger than the data), and one closed-loop client
// cycling the 13 SSB queries. batchexec, colstore/encoding and plan do
// nearly all the work. Because every workload reports every end-to-end
// metric, the client also trickles a 128-row INSERT into a staging table of
// its own after each query: an in-memory autocommit write that goes through
// sql, txn and a delta store but no WAL, no fsync and no load path, and that
// leaves the queried tables fully compressed.
type ssbScan struct {
	stmts  []string
	oracle *oracle
	db     *apollo.DB
	rng    *rand.Rand

	stagingKey  int64 // next lo_orderkey to insert
	stagingRows int64 // rows acknowledged, warm-up included
	stagingSum  int64 // sum of their keys
	lastInsert  string
}

const (
	ssbScanSF     = 10
	stagingRows   = 128
	stagingDate   = "1995-06-15"
	stagingCreate = `CREATE TABLE lo_staging (lo_orderkey BIGINT, lo_custkey BIGINT, lo_partkey BIGINT,
		lo_suppkey BIGINT, lo_orderdate DATE, lo_quantity BIGINT, lo_extendedprice BIGINT,
		lo_discount BIGINT, lo_revenue BIGINT, lo_supplycost BIGINT)`
)

func (w *ssbScan) prepare(r *runState) error {
	w.stmts = ssbStatements()
	d := workload.GenSSB(ssbScanSF*r.p.scale, r.p.seed)
	var err error
	w.oracle, err = buildOracle(r.p.seed, d, w.stmts)
	return err
}

func (w *ssbScan) setup(r *runState) error {
	d := workload.GenSSB(ssbScanSF*r.p.scale, r.p.seed)
	w.db = apollo.Open(engineConfig(r.p.seed))
	if err := loadSSB(w.db, d); err != nil {
		return err
	}
	if _, err := w.db.Exec(stagingCreate); err != nil {
		return err
	}
	w.rng = rand.New(rand.NewSource(r.p.seed))
	w.stagingKey, w.stagingRows, w.stagingSum = 1, 0, 0
	r.describe(1, false, apollo.DefaultConfig().BufferPoolBytes)
	return w.round(r) // warm: every query once, statistics collected, segments cached
}

// round runs each SSB query once, each followed by one staging insert.
func (w *ssbScan) round(r *runState) error {
	for i, q := range w.stmts {
		err := r.op("read", i, func(op spanID) error {
			var res *apollo.Result
			if err := r.call(op, "db.Query", func() (err error) { res, err = w.db.Query(q); return }); err != nil {
				return err
			}
			r.sent(1)
			return w.oracle.check(i, answerOf(res.Rows))
		})
		if err != nil && !r.measuring.Load() {
			return err
		}
		first := w.stagingKey
		stmt, raw := lineorderInsert("lo_staging", first, stagingRows, stagingDate,
			func(n int) int64 { return int64(w.rng.Intn(n)) })
		w.lastInsert = stmt
		err = r.op("write", 0, func(op spanID) error {
			return r.call(op, "db.Exec", func() error { _, err := w.db.Exec(stmt); return err })
		})
		r.sent(1)
		if err != nil {
			if !r.measuring.Load() {
				return err
			}
			continue
		}
		w.stagingKey += stagingRows
		w.stagingRows += stagingRows
		w.stagingSum += stagingRows*first + stagingRows*(stagingRows-1)/2
		r.wrote(stagingRows, raw)
	}
	return nil
}

// drive runs whole rounds, so the query mix — and with it every per-read
// count — is the same whatever the speed of the build under test.
func (w *ssbScan) drive(r *runState) {
	for !r.done() {
		w.round(r) //nolint:errcheck // failures are counted by op
	}
}

func (w *ssbScan) finish(r *runState) error {
	res, err := w.db.Query("SELECT COUNT(*), SUM(lo_orderkey) FROM lo_staging")
	if err != nil {
		return err
	}
	gotRows, gotSum := res.Rows[0][0].I, res.Rows[0][1].I
	r.gate("staging_rows_match_acked_inserts", gotRows == w.stagingRows && gotSum == w.stagingSum,
		"COUNT(*)=%d SUM(lo_orderkey)=%d, acknowledged %d/%d", gotRows, gotSum, w.stagingRows, w.stagingSum)
	lo, err := w.db.Table("lineorder")
	if err != nil {
		return err
	}
	st := lo.Stats()
	r.gate("lineorder_all_compressed", st.DeltaRows == 0 && st.DeletedRows == 0,
		"lineorder has %d delta rows, %d deleted rows", st.DeltaRows, st.DeletedRows)

	if err := r.endState(w.db, "lineorder", w.stmts, []string{w.lastInsert}); err != nil {
		return err
	}
	r.notApplicable("wal.checkpoint_s", "wal.recovery_s", "wal.replayed_records",
		"server.overhead_us_p50", "server.encode_rows_per_s", "broker.admit_us_p50")
	r.setLoadLayer(&loadStats{}) // the tables are loaded with Table.BulkLoad, not the load pipeline
	if r.p.trace {
		// One client, no timers on the read path: these repeat exactly.
		r.exactRepeat("colstore.row_groups", "colstore.row_groups_eliminated", "colstore.elimination_ratio",
			"colstore.segments_opened", "colstore.string_cols_coded_ratio", "colstore.rows_after_bloom_ratio",
			"plan.join_regions_reordered", "delta.rows_scanned_share")
		return w.probeModes(r)
	}
	return nil
}

// probeModes measures the two ratios that need another engine
// configuration over the same data: batch over row mode (the paper's 10X
// claim; the row-mode side is the oracle's timing) and DOP 2 over serial.
func (w *ssbScan) probeModes(r *runState) error {
	batchMs, err := roundLatencies(w.db, w.stmts)
	if err != nil {
		return err
	}
	r.set("batchexec.batch_over_row_x", speedup(w.oracle.rowModeMs, batchMs))

	cfg := engineConfig(r.p.seed)
	cfg.Parallel = 2
	par := apollo.Open(cfg)
	defer par.Close()
	if err := loadSSB(par, workload.GenSSB(ssbScanSF*r.p.scale, r.p.seed)); err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := par.TableStats("lineorder"); err != nil {
		return err
	}
	r.set("stats.collect_ms", float64(time.Since(t0))/1e6)  // cold: nothing has queried this database yet
	if _, err := roundLatencies(par, w.stmts); err != nil { // warm
		return err
	}
	parMs, err := roundLatencies(par, w.stmts)
	if err != nil {
		return err
	}
	r.set("batchexec.dop2_over_serial_x", speedup(batchMs, parMs))
	return nil
}

// roundLatencies runs each statement once and returns its latency in ms.
func roundLatencies(db *apollo.DB, stmts []string) ([]float64, error) {
	var ms []float64
	for _, q := range stmts {
		t0 := time.Now()
		if _, err := db.Query(q); err != nil {
			return nil, fmt.Errorf("probe round: %w", err)
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return ms, nil
}

func (w *ssbScan) teardown() {
	if w.db != nil {
		w.db.Close()
		w.db = nil
	}
}

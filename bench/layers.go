package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"apollo"
	"apollo/internal/encoding"
	"apollo/internal/sql"
	"apollo/internal/workload"
)

// The per-layer table is measured from outside the system only: wall time
// around calls into exported functions, the public result and stat structs,
// and the change of the metrics registry over the timed phase. This file
// holds the parts every workload shares.

// loadStats accumulates what the load pipeline reported for the calls a
// workload made (set-up loads included, since on wire_mixed that is where
// the load layer works).
type loadStats struct {
	rows, direct, groups, deadLetters, finalTarget int
	seconds                                        float64
}

func (l *loadStats) add(rows, direct, groups, deadLetters, finalTarget int, seconds float64) {
	l.rows += rows
	l.direct += direct
	l.groups += groups
	l.deadLetters += deadLetters
	l.finalTarget = finalTarget
	l.seconds += seconds
}

func (r *runState) setLoadLayer(l *loadStats) {
	r.set("load.rows_per_s", ratio(float64(l.rows), l.seconds))
	r.set("load.direct_ratio", ratio(float64(l.direct), float64(l.rows)))
	r.set("load.groups", float64(l.groups))
	r.set("load.final_batch_rows", float64(l.finalTarget))
	r.set("load.dead_letters", float64(l.deadLetters))
}

// observedLayers sets the metrics that are counted while the timed phase
// runs. Counts that grow with the number of operations are given per read or
// per operation, so that a faster build, which completes more operations in
// the same seconds, still compares.
func (r *runState) observedLayers(reg registryDelta, elapsed float64, before, after *runtime.MemStats) {
	reads := r.reads.sorted()
	nReads := float64(len(reads))
	ops := float64(r.attempted.Load())

	r.set("sql.stmts", float64(r.stmts.Load()))

	r.set("plan.join_regions_reordered", ratio(reg.get("apollo_plan_join_regions_reordered_total"), nReads))
	r.set("plan.stats_collections", reg.get("apollo_plan_stats_collections_total"))

	// The scan counts rows of the compressed groups it did not eliminate and
	// delta rows separately; together they are the rows it looked at.
	deltaRows := reg.get("apollo_scan_delta_rows_total")
	considered := reg.get("apollo_scan_rows_considered_total") + deltaRows
	r.set("batchexec.rows_considered_per_s", considered/elapsed)
	r.set("batchexec.spills", reg.get("apollo_exec_spills_total"))

	groups := reg.get("apollo_scan_row_groups_total")
	eliminated := reg.get("apollo_scan_row_groups_eliminated_total")
	coded := reg.get("apollo_scan_string_cols_coded_total")
	r.set("colstore.row_groups", ratio(groups, nReads))
	r.set("colstore.row_groups_eliminated", ratio(eliminated, nReads))
	r.set("colstore.elimination_ratio", ratio(eliminated, groups))
	r.set("colstore.segments_opened", ratio(reg.get("apollo_colstore_segments_opened_total"), nReads))
	r.set("colstore.string_cols_coded_ratio", ratio(coded, coded+reg.get("apollo_scan_string_cols_materialized_total")))
	r.set("colstore.decode_ms_per_read", ratio(1000*reg.sum("apollo_colstore_decode_seconds", "_sum"), nReads))

	hits, misses := reg.get("apollo_storage_cache_hits_total"), reg.get("apollo_storage_cache_misses_total")
	r.set("storage.cache_hit_ratio", ratio(hits, hits+misses))
	r.set("storage.cache_misses", misses)
	r.set("storage.bytes_read", reg.get("apollo_storage_read_bytes_total"))
	r.set("storage.bytes_written", reg.get("apollo_storage_written_bytes_total"))

	r.set("delta.rows_scanned_share", ratio(deltaRows, considered))
	r.set("table.mover_moves", reg.get("apollo_mover_moves_total"))
	r.set("table.mover_aborts", reg.get("apollo_mover_aborts_total"))
	r.set("table.read_p95_over_p50", ratio(percentile(reads, 95), percentile(reads, 50)))

	commits, aborts := reg.get("apollo_txn_commits_total"), reg.get("apollo_txn_aborts_total")
	conflicts := reg.get("apollo_txn_conflicts_total")
	r.set("txn.commits", commits)
	r.set("txn.aborts", aborts)
	r.set("txn.conflicts", conflicts)
	r.set("txn.conflict_ratio", ratio(conflicts, commits+aborts))

	fsyncs := reg.get("apollo_wal_fsyncs_total")
	r.set("wal.fsyncs", fsyncs)
	r.set("wal.fsyncs_per_commit", ratio(fsyncs, commits))
	r.set("wal.appends", reg.get("apollo_wal_appends_total"))
	r.set("wal.bytes_per_user_byte", ratio(reg.get("apollo_wal_bytes_total"), float64(r.userBytes.Load())))
	commitMs := r.tr.durationsMs("commit")
	if len(commitMs) == 0 {
		r.set("wal.commit_wait_ms_p50", 0)
	} else {
		r.set("wal.commit_wait_ms_p50", percentile(commitMs, 50))
	}

	r.set("server.rows_streamed", reg.get("apollod_rows_streamed_total"))
	r.set("broker.wait_ms_mean", 1000*ratio(reg.sum("apollod_admission_wait_seconds", "_sum"),
		reg.sum("apollod_admission_wait_seconds", "_count")))

	r.set("go.allocs_per_op", ratio(float64(after.Mallocs-before.Mallocs), ops))
	r.set("go.alloc_bytes_per_op", ratio(float64(after.TotalAlloc-before.TotalAlloc), ops))
	r.set("go.gc_pause_ms_total", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	r.set("go.gc_cpu_fraction", after.GCCPUFraction)

	// Four windows record and four do not, all equally long (see traced), so
	// the ratio of operations completed is the ratio of throughputs.
	r.set("trace.overhead_ratio", ratio(float64(r.windowOps[1].Load()), float64(r.windowOps[0].Load())))
	r.set("trace.spans", float64(r.tr.count()))
	var opMs, selfMs float64
	for name, tot := range r.tr.summarize() {
		if name == "op.read" || name == "op.write" {
			opMs += tot.TotalMs
			selfMs += tot.SelfMs
		}
	}
	r.set("trace.client_self_share", ratio(selfMs, opMs))
}

// endState runs at the end of every workload on an embedded handle to its
// data (the live handle, or the directory reopened). It makes the remaining
// delta rows compressed so that disk_bytes_per_raw_byte covers every row,
// and in a traced run probes the layers that cannot be observed in passing.
func (r *runState) endState(db *apollo.DB, mainTable string, readStmts, writeStmts []string) error {
	main, err := db.Table(mainTable)
	if err != nil {
		return err
	}
	st := main.Stats()
	r.set("table.delta_rows_end", float64(st.DeltaRows))
	r.set("table.compressed_groups_end", float64(st.CompressedGroups))
	r.set("table.deleted_rows_end", float64(st.DeletedRows))
	var diskRaw float64
	for _, name := range db.Tables() {
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		id := noSpan
		if r.p.trace && name == mainTable {
			id = r.tr.root("table.reorganize")
		}
		t0 := time.Now()
		if err := t.Reorganize(); err != nil {
			return fmt.Errorf("reorganize %s: %w", name, err)
		}
		r.tr.end(id)
		if name == mainTable {
			r.set("table.reorganize_s", time.Since(t0).Seconds())
		}
		diskRaw += float64(t.Stats().RawBytes)
	}
	r.set("disk_bytes_per_raw_byte", ratio(float64(db.DiskBytes()), diskRaw))
	r.info["data_bytes_at_rest"] = db.DiskBytes()
	if !r.p.trace {
		return nil
	}
	if err := r.probeStatements(db, readStmts, writeStmts); err != nil {
		return err
	}
	r.probeEncoding()
	return nil
}

// probeStatements times the front of the query path on the workload's own
// statement texts, and reads the operator walls and scan counters that only
// an embedded Result carries.
func (r *runState) probeStatements(db *apollo.DB, readStmts, writeStmts []string) error {
	const reps = 20
	var parseUs, explainUs []float64
	parseOf := map[string]float64{}
	for _, q := range append(append([]string(nil), readStmts...), writeStmts...) {
		var us []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if _, err := sql.Parse(q); err != nil {
				return fmt.Errorf("parse probe: %w", err)
			}
			us = append(us, float64(time.Since(t0))/1e3)
		}
		parseOf[q] = median(us)
		parseUs = append(parseUs, parseOf[q])
	}
	for _, q := range readStmts {
		var us []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if _, err := db.Exec("EXPLAIN " + q); err != nil {
				return fmt.Errorf("explain probe: %w", err)
			}
			us = append(us, float64(time.Since(t0))/1e3)
		}
		// EXPLAIN parses, binds, collects statistics, optimizes and compiles;
		// taking the parse time off leaves the planner's part.
		explainUs = append(explainUs, median(us)-parseOf[q])
	}
	sort.Float64s(parseUs)
	sort.Float64s(explainUs)
	r.set("sql.parse_us_p50", percentile(parseUs, 50))
	r.set("plan.explain_us_p50", percentile(explainUs, 50))
	r.set("plan.share_of_read", ratio(percentile(explainUs, 50)/1000, r.reads.typical()))

	// Operator walls are inclusive, as Result.Operators reports them: an
	// operator's wall contains its inputs' (self time needs the plan tree).
	// Mean per statement over three rounds of the read statements.
	const rounds = 3
	wall := map[string]float64{}
	var afterRange, afterBloom float64
	for i := 0; i < rounds; i++ {
		for _, q := range readStmts {
			res, err := db.Query(q)
			if err != nil {
				return fmt.Errorf("operator probe: %w", err)
			}
			for _, o := range res.Operators {
				wall[o.Op] += float64(o.MaxWall) / 1e6
			}
			afterRange += float64(res.Stats.RowsAfterRangePush)
			afterBloom += float64(res.Stats.RowsAfterBloomFilter)
		}
	}
	n := float64(rounds * len(readStmts))
	for _, op := range []string{"scan", "filter", "hashjoin", "hashagg"} {
		r.set("batchexec."+op+"_wall_ms", wall[op]/n)
	}
	r.set("colstore.rows_after_bloom_ratio", ratio(afterBloom, afterRange))
	return nil
}

// probeEncoding times the exported pack, RLE and dictionary functions in
// both directions on columns of a seeded SSB fact table. The element counts
// are exact; only the time varies.
func (r *runState) probeEncoding() {
	d := workload.GenSSB(2, r.p.seed)
	n := len(d.Lineorder)
	quantity := make([]uint64, n) // 50 distinct values, no order: bit-packing's case
	discount := make([]uint64, n) // 11 distinct values, sorted: run-length's case
	cities := make([]string, n)   // ~250 distinct strings: the dictionary's case
	for i, row := range d.Lineorder {
		quantity[i] = uint64(row[5].I)
		discount[i] = uint64(row[7].I)
		cities[i] = d.Customer[row[1].I-1][2].S
	}
	sort.Slice(discount, func(i, j int) bool { return discount[i] < discount[j] })

	// rate runs fn until 50ms have passed and returns million values a second.
	rate := func(fn func()) float64 {
		reps := 0
		t0 := time.Now()
		for time.Since(t0) < 50*time.Millisecond {
			fn()
			reps++
		}
		return float64(reps) * float64(n) / 1e6 / time.Since(t0).Seconds()
	}
	out := make([]uint64, n)
	var packed encoding.Packed
	r.set("encoding.pack_mvals_per_s", rate(func() { packed = encoding.PackSlice(quantity) }))
	r.set("encoding.unpack_mvals_per_s", rate(func() { packed.DecodeAll(out) }))
	var rle *encoding.RLE
	r.set("encoding.rle_encode_mvals_per_s", rate(func() { rle = encoding.RLEEncode(discount) }))
	r.set("encoding.rle_decode_mvals_per_s", rate(func() { rle.DecodeAll(out) }))
	var dict *encoding.Dict
	codes := make([]uint32, n)
	r.set("encoding.dict_build_mvals_per_s", rate(func() {
		dict = encoding.NewDict()
		for i, s := range cities {
			codes[i] = dict.Add(s)
		}
	}))
	var sink int
	r.set("encoding.dict_decode_mvals_per_s", rate(func() {
		for _, c := range codes {
			sink += len(dict.Value(c))
		}
	}))
	r.info["encoding_probe_values"] = n
	_ = sink
}

// reopen opens a durable workload's directory again after its clients are
// done: the restart its acknowledged writes must survive. In a traced run the
// recovery and the first statistics collection are timed, both cold.
func (r *runState) reopen(dir, mainTable string) (*apollo.DB, error) {
	id := noSpan
	if r.p.trace {
		id = r.tr.root("apollo.OpenDir")
	}
	t0 := time.Now()
	db, err := apollo.OpenDir(dir, engineConfig(r.p.seed))
	r.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	if r.p.trace {
		r.set("wal.recovery_s", time.Since(t0).Seconds())
		r.set("wal.replayed_records", float64(db.RecoveryInfo().ReplayedRecords))
		t0 = time.Now()
		if _, err := db.TableStats(mainTable); err != nil {
			db.Close()
			return nil, err
		}
		r.set("stats.collect_ms", float64(time.Since(t0))/1e6)
	}
	return db, nil
}

func (r *runState) checkpoint(db *apollo.DB) error {
	if !r.p.trace {
		return nil
	}
	id := r.tr.root("db.Checkpoint")
	t0 := time.Now()
	_, err := db.Checkpoint()
	r.tr.end(id)
	r.set("wal.checkpoint_s", time.Since(t0).Seconds())
	return err
}

// notApplicable sets per-layer metrics to zero on a workload that has no
// such layer in its path; README.md lists which and why.
func (r *runState) notApplicable(names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
}

package batchexec

import "apollo/internal/metrics"

// Process-wide series for the batch executor. Per-query numbers live in
// ScanStats/OpStats; these aggregate across queries for the .metrics dump.
// Scan counters are bumped per row group or per batch (never per row), and
// the operator fast-path counters once per batch, keeping the hot-path cost
// to one atomic add per ~900 rows.
var (
	mScanGroups = metrics.Default.Counter("apollo_scan_row_groups_total",
		"row groups considered by scans")
	mScanGroupsEliminated = metrics.Default.Counter("apollo_scan_row_groups_eliminated_total",
		"row groups skipped entirely via segment metadata")
	mScanRowsConsidered = metrics.Default.Counter("apollo_scan_rows_considered_total",
		"rows in non-eliminated row groups")
	mScanRowsDeleted = metrics.Default.Counter("apollo_scan_rows_deleted_total",
		"rows dropped by delete bitmaps")
	mScanRowsOutput = metrics.Default.Counter("apollo_scan_rows_output_total",
		"rows emitted by scans (group + delta side)")
	mScanDeltaRows = metrics.Default.Counter("apollo_scan_delta_rows_total",
		"delta-store rows examined (row-mode side)")
	mScanColsCoded = metrics.Default.Counter("apollo_scan_string_cols_coded_total",
		"per-batch string columns emitted as dict codes (late materialization)")
	mScanColsMaterialized = metrics.Default.Counter("apollo_scan_string_cols_materialized_total",
		"per-batch string columns eagerly decoded (local-dict fallback)")

	mAggBatchesPacked = metrics.Default.Counter(`apollo_hashagg_batches_total{path="packed"}`,
		"batches aggregated, by group-key path")
	mAggBatchesEncoded = metrics.Default.Counter(`apollo_hashagg_batches_total{path="encoded"}`,
		"batches aggregated, by group-key path")

	mJoinBatchesPacked = metrics.Default.Counter(`apollo_hashjoin_probe_batches_total{path="packed"}`,
		"probe batches joined, by join-key path")
	mJoinBatchesEncoded = metrics.Default.Counter(`apollo_hashjoin_probe_batches_total{path="encoded"}`,
		"probe batches joined, by join-key path")

	mBitmapFiltersExact = metrics.Default.Counter(`apollo_hashjoin_bitmap_filters_total{kind="exact"}`,
		"bitmap filters published by hash-join builds, by layout")
	mBitmapFiltersBloom = metrics.Default.Counter(`apollo_hashjoin_bitmap_filters_total{kind="bloom"}`,
		"bitmap filters published by hash-join builds, by layout")

	mSpills = metrics.Default.Counter("apollo_exec_spills_total",
		"hash-operator spill events (memory grant exhausted)")

	mExchangeWorkers = metrics.Default.Counter("apollo_exchange_workers_started_total",
		"exchange worker goroutines started (parallel agg, join splitters/probers)")
	mExchangeBusy = metrics.Default.Histogram("apollo_exchange_worker_busy_seconds",
		"wall time each exchange worker spent running", nil)
)

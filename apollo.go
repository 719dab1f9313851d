// Package apollo is an embeddable analytic database engine reproducing the
// system described in "Enhancements to SQL Server Column Stores" (Larson et
// al., SIGMOD 2013): updatable clustered columnstore tables (compressed row
// groups + delta stores + delete bitmaps + a background tuple mover),
// dictionary/value/RLE/bit-packed segment compression with an optional
// archival tier, and a query processor with both row-at-a-time and batch
// (vectorized) execution — including the expanded batch repertoire the paper
// introduces: all join types, UNION ALL, distinct and scalar aggregation,
// spilling, bitmap-filter pushdown, and segment elimination.
//
// Quick start:
//
//	db := apollo.Open(apollo.DefaultConfig())
//	defer db.Close()
//	db.MustExec(`CREATE TABLE sales (id BIGINT, amount DOUBLE, region VARCHAR, sold DATE)`)
//	db.MustExec(`INSERT INTO sales VALUES (1, 9.99, 'north', DATE '2013-06-22')`)
//	res, err := db.Query(`SELECT region, SUM(amount) FROM sales GROUP BY region`)
package apollo

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"apollo/internal/catalog"
	"apollo/internal/degrade"
	"apollo/internal/exec/batchexec"
	"apollo/internal/metrics"
	"apollo/internal/persist"
	"apollo/internal/plan"
	"apollo/internal/qerr"
	"apollo/internal/scrub"
	"apollo/internal/sql"
	"apollo/internal/sqltypes"
	"apollo/internal/stats"
	"apollo/internal/storage"
	"apollo/internal/table"
	"apollo/internal/txn"
	"apollo/internal/wal"
)

// ErrCorrupt matches mid-log WAL damage surfaced by OpenDir (a torn tail is
// repaired silently; anything else refuses to open). Use errors.Is.
var ErrCorrupt = wal.ErrCorrupt

// Value is a scalar SQL value.
type Value = sqltypes.Value

// Row is a tuple of values.
type Row = sqltypes.Row

// Schema describes a table's columns.
type Schema = sqltypes.Schema

// Column describes one column.
type Column = sqltypes.Column

// Type identifies a SQL type.
type Type = sqltypes.Type

// Re-exported column types.
const (
	Int64   = sqltypes.Int64
	Float64 = sqltypes.Float64
	Bool    = sqltypes.Bool
	String  = sqltypes.String
	Date    = sqltypes.Date
)

// Value constructors, re-exported for programmatic loads.
var (
	NewInt    = sqltypes.NewInt
	NewFloat  = sqltypes.NewFloat
	NewBool   = sqltypes.NewBool
	NewString = sqltypes.NewString
	NewDate   = sqltypes.NewDate
	NewNull   = sqltypes.NewNull

	// DateFromString parses "YYYY-MM-DD" into days since the Unix epoch.
	DateFromString = sqltypes.DateFromString
)

// ExecutionMode selects the query execution rule set (§5/§6).
type ExecutionMode = plan.Mode

// Execution modes: the full 2014 batch repertoire (default), the restricted
// 2012 repertoire with row-mode fallback, and row-at-a-time execution.
const (
	Mode2014 = plan.Mode2014
	Mode2012 = plan.Mode2012
	ModeRow  = plan.ModeRow
)

// Config configures a database instance.
type Config struct {
	// BufferPoolBytes sizes the storage buffer pool (0 disables caching so
	// every segment read is a cold read).
	BufferPoolBytes int64
	// Mode selects the execution rule set.
	Mode ExecutionMode
	// Parallel is the pipeline-wide degree of parallelism (<=1 serial): row
	// group workers at the scan, and above it exchange workers running
	// replicated filter/project stages into parallel partial aggregation and
	// partitioned parallel hash joins.
	Parallel int
	// MemoryBudget caps hash join/aggregation memory; exceeding it spills.
	// 0 = unlimited.
	MemoryBudget int64
	// RowGroupSize and BulkLoadThreshold default new tables' storage options
	// (the paper's values are 1M and 102,400 rows).
	RowGroupSize      int
	BulkLoadThreshold int
	// ArchiveTier stores new tables' segments under archival (DEFLATE)
	// compression — COLUMNSTORE_ARCHIVE.
	ArchiveTier bool
	// TupleMoverInterval starts a background tuple mover per table; 0 keeps
	// the tuple mover manual (REORGANIZE / FlushOpen).
	TupleMoverInterval time.Duration
	// Ablation switches used by the experiment harness.
	NoSegmentElimination bool
	NoBloom              bool
	NoReorder            bool
	// TraceWriter, when set, receives one JSON trace event per operator
	// lifecycle transition (open, next-batch, eos, error, close) for every
	// query, with monotonic timestamps. See metrics.TraceEvent for the
	// schema. The writer is shared across concurrent queries; events are
	// serialized, one object per line.
	TraceWriter io.Writer
	// CacheBudget, when set, makes the buffer pool draw from a byte budget
	// shared with other DBs in the process instead of a private
	// BufferPoolBytes pool — the multi-tenant configuration (see
	// NewCacheBudget and internal/server/broker).
	CacheBudget *CacheBudget
	// RandSeed seeds the database's private RNG (fault-injection seed
	// derivation and other instance-local randomness). 0 draws a seed from
	// the clock; set it to make runs reproducible per instance even when
	// many DBs share the process.
	RandSeed int64

	// Durability (OpenDir only; Open ignores these).

	// FsyncPolicy selects the WAL fsync discipline: "always" (default —
	// group commit, zero loss), "interval" (timer-driven, bounded loss), or
	// "off" (page cache only).
	FsyncPolicy string
	// FsyncInterval is the flush period under FsyncPolicy "interval"
	// (default 10ms).
	FsyncInterval time.Duration
	// WALSegmentBytes rotates WAL segment files at this size (default 16 MiB).
	WALSegmentBytes int64
	// WALCrashAt kills the process once the WAL has written this many
	// cumulative bytes (crash-injection testing; 0 disables).
	WALCrashAt int64

	// ScrubInterval starts the background integrity scrubber with one pass
	// per interval (0 keeps scrubbing manual via DB.Scrub / .scrub).
	ScrubInterval time.Duration
	// ScrubBytesPerSec paces the scrubber's verification throughput
	// (default 256 MiB/s).
	ScrubBytesPerSec int64
	// ProbeInterval sets how often a read-only (disk full) database probes
	// for reclaimed space to restore writability (default 500ms).
	ProbeInterval time.Duration
}

// DefaultConfig returns the production-like configuration.
func DefaultConfig() Config {
	return Config{
		BufferPoolBytes:    storage.DefaultBufferPoolBytes,
		Mode:               Mode2014,
		TupleMoverInterval: 100 * time.Millisecond,
	}
}

// CacheBudget is a byte budget shared by the buffer pools of several DBs in
// one process (see Config.CacheBudget). Create one with NewCacheBudget and
// attach it to every tenant's Config.
type CacheBudget = storage.Budget

// NewCacheBudget creates a shared buffer-pool budget of cap bytes.
func NewCacheBudget(cap int64) *CacheBudget { return storage.NewBudget(cap) }

// DB is a database instance.
type DB struct {
	cfg     Config
	store   *storage.Store
	cat     *catalog.Catalog
	engine  *sql.Engine
	wal     *wal.Writer // nil for in-memory databases
	txns    *txn.Manager
	dataDir string
	rec     RecoveryInfo
	closed  atomic.Bool

	// state is the write-availability state machine (healthy → read-only on
	// ENOSPC → poisoned on fsync failure); scrubber is the background
	// integrity worker. Both always non-nil after open.
	state    *degrade.State
	scrubber *scrub.Scrubber

	// Instance-local RNG (Config.RandSeed): fault-injection seed derivation
	// must not consume a process-global source, or one tenant's runs would
	// perturb another's reproducibility.
	rngMu   sync.Mutex
	rng     *rand.Rand
	rngSeed int64
}

// Open creates an in-process database.
func Open(cfg Config) *DB {
	store := storage.NewStore(cfg.BufferPoolBytes)
	cat := catalog.New(store)
	db := newDB(cfg, store, cat, nil, degrade.New())
	db.finishOpen()
	return db
}

// OpenDir opens (or creates) a durable database rooted at dir. Recovery runs
// first: the newest valid checkpoint image is restored and the write-ahead
// log is replayed over it, truncating a torn tail left by a crash. Damage
// anywhere else in the log fails the open with an error matching
// wal.ErrCorrupt. All DDL and DML on the returned DB is logged; durability
// of acknowledged writes follows cfg.FsyncPolicy.
func OpenDir(dir string, cfg Config) (*DB, error) {
	policy, err := wal.ParsePolicy(cfg.FsyncPolicy)
	if err != nil {
		return nil, err
	}
	store := storage.NewStore(cfg.BufferPoolBytes)
	cat := catalog.New(store)
	// The degrade state exists before the WAL writer so a poison fired at any
	// point in the writer's life — including recovery — lands in it.
	state := degrade.New()
	res, err := persist.Recover(dir, store, cat, wal.Options{
		Policy:       policy,
		Interval:     cfg.FsyncInterval,
		SegmentBytes: cfg.WALSegmentBytes,
		CrashAt:      cfg.WALCrashAt,
		OnPoison:     state.Poison,
	})
	if err != nil {
		return nil, fmt.Errorf("apollo: open %s: %w", dir, err)
	}
	db := newDB(cfg, store, cat, res.Writer, state)
	db.dataDir = dir
	db.rec = RecoveryInfo{
		CheckpointSeq:   res.CheckpointSeq,
		ReplayedRecords: res.ReplayedRecords,
		TruncatedTail:   res.TruncatedTail,
		OrphanBlobs:     res.OrphanBlobs,
		BlobsLoaded:     res.BlobsLoaded,
	}
	// Spills are scratch data; route them to a private in-memory store so
	// they never write through to the blob directory.
	db.engine.PlanOpts.SpillStore = storage.NewStore(cfg.BufferPoolBytes)
	// Recovered tables get their background movers started here (the engine
	// hook only fires for tables created through SQL).
	for _, name := range cat.List() {
		if t, err := cat.Get(name); err == nil {
			if cfg.TupleMoverInterval > 0 {
				t.StartTupleMover(cfg.TupleMoverInterval)
			}
			t.SetFailureObserver(db.state.Observe)
		}
	}
	db.finishOpen()
	return db, nil
}

func newDB(cfg Config, store *storage.Store, cat *catalog.Catalog, w *wal.Writer, state *degrade.State) *DB {
	topts := table.DefaultOptions()
	if cfg.RowGroupSize > 0 {
		topts.RowGroupSize = cfg.RowGroupSize
	}
	if cfg.BulkLoadThreshold > 0 {
		topts.BulkLoadThreshold = cfg.BulkLoadThreshold
	}
	if cfg.ArchiveTier {
		topts.Columnstore.Tier = storage.Archival
	}
	if cfg.NoReorder {
		topts.Columnstore.Reorder = false
	}
	// Bulk loads compress per-column segments concurrently with the same DOP
	// queries get (<=1 keeps the serial build).
	topts.Columnstore.BuildParallel = cfg.Parallel

	db := &DB{cfg: cfg, store: store, cat: cat, wal: w, state: state}
	db.rngSeed = cfg.RandSeed
	if db.rngSeed == 0 {
		db.rngSeed = time.Now().UnixNano()
	}
	db.rng = rand.New(rand.NewSource(db.rngSeed))
	if cfg.CacheBudget != nil {
		store.SetCacheBudget(cfg.CacheBudget)
	}
	db.txns = txn.NewManager(w)
	cat.SetClock(db.txns)
	var tracer *metrics.Tracer
	if cfg.TraceWriter != nil {
		tracer = metrics.NewTracer(cfg.TraceWriter)
	}
	db.engine = &sql.Engine{
		Cat: cat,
		PlanOpts: plan.Options{
			Mode:                 cfg.Mode,
			Parallel:             cfg.Parallel,
			MemoryBudget:         cfg.MemoryBudget,
			SpillStore:           store,
			NoSegmentElimination: cfg.NoSegmentElimination,
			NoBloom:              cfg.NoBloom,
			Tracer:               tracer,
		},
		TableOpts: topts,
		Txns:      db.txns,
		State:     state,
	}
	db.engine.OnCreate = func(t *table.Table) {
		if cfg.TupleMoverInterval > 0 {
			t.StartTupleMover(cfg.TupleMoverInterval)
		}
		// Background mover failures (ENOSPC, poisoned WAL) must degrade the
		// DB even though no session is on the path.
		t.SetFailureObserver(db.state.Observe)
	}
	return db
}

// finishOpen wires the durability-health plumbing that needs the fully
// constructed DB: fsync-failure poisoning from the blob backing, the
// read-only write probe, and the integrity scrubber.
func (db *DB) finishOpen() {
	if b := db.store.Backing(); b != nil {
		b.SetSyncFailHook(func(err error) {
			// A failed blob fsync is as unrecoverable as a failed WAL fsync:
			// the page cache may have dropped the dirty pages, so nothing
			// durable can be promised any more. Fail-stop both layers.
			db.state.Poison(err)
			if db.wal != nil {
				db.wal.Poison(err)
			}
		})
	}
	db.state.SetProbe(db.writeProbe, db.cfg.ProbeInterval)

	walDir := ""
	var below func() uint64
	var ckpt func() error
	if db.wal != nil {
		walDir = db.wal.Dir()
		below = func() uint64 { return db.wal.Stat().Seq }
		ckpt = func() error { _, err := db.Checkpoint(); return err }
	}
	db.scrubber = scrub.New(db.store, db.cat, walDir, below, ckpt, scrub.Options{
		Interval:    db.cfg.ScrubInterval,
		BytesPerSec: db.cfg.ScrubBytesPerSec,
	})
	if db.cfg.ScrubInterval > 0 {
		db.scrubber.Start()
	}
}

// writeProbe checks whether durable writes can currently succeed — the
// read-only auto-recovery probe. Both the blob store and the WAL must accept
// a write+fsync round trip.
func (db *DB) writeProbe() error {
	if err := db.store.WriteProbe(); err != nil {
		return err
	}
	if db.wal != nil {
		return db.wal.WriteProbe()
	}
	return nil
}

// Close stops background workers, rolling back every in-flight transaction
// (their sessions see ErrClosed). Statements racing Close fail with a typed
// ErrClosed instead of panicking: new statements are rejected at the door,
// and in-flight ones finish against their in-memory snapshots or surface
// ErrClosed from the transaction layer. For a durable database (OpenDir) it
// also flushes and closes the write-ahead log; for an in-memory one (Open),
// closing does not persist anything. Close is idempotent.
func (db *DB) Close() {
	if !db.closed.CompareAndSwap(false, true) {
		return
	}
	db.engine.SetClosed()
	if db.scrubber != nil {
		db.scrubber.Stop()
	}
	db.state.Close()
	db.txns.Close()
	db.cat.Close()
	if db.wal != nil {
		db.wal.Close() //nolint:synccheck — close error reflected in wal.Stat().Poisoned
	}
}

// Closed reports whether Close has been called.
func (db *DB) Closed() bool { return db.closed.Load() }

// --- Durability (OpenDir databases) ---

// RecoveryInfo summarizes what recovery did when a durable database opened.
type RecoveryInfo struct {
	CheckpointSeq   uint64 // replay point of the checkpoint image used (0 = none)
	ReplayedRecords int64  // WAL records applied over the image
	TruncatedTail   bool   // a torn tail was found and truncated
	OrphanBlobs     int    // unreferenced blob files garbage-collected
	BlobsLoaded     int    // blob files loaded from disk
}

// RecoveryInfo reports the recovery summary of an OpenDir database (zero
// value for in-memory databases).
func (db *DB) RecoveryInfo() RecoveryInfo { return db.rec }

// Durable reports whether the database persists to disk.
func (db *DB) Durable() bool { return db.wal != nil }

// Checkpoint writes a checkpoint image of every table and truncates the
// write-ahead log below it, bounding recovery time. Concurrent DML is safe
// (the checkpoint is fuzzy; replay is idempotent). Returns the new WAL
// replay point, or an error on an in-memory database.
func (db *DB) Checkpoint() (uint64, error) {
	if db.wal == nil {
		return 0, fmt.Errorf("apollo: checkpoint on an in-memory database")
	}
	// A checkpoint that dies on ENOSPC or a failed fsync degrades the DB
	// like any other write; the pre-checkpoint image stays authoritative.
	var seq uint64
	err := db.state.Gate(func() (err error) {
		seq, err = persist.WriteCheckpoint(db.dataDir, db.wal, db.cat, db.txns)
		return err
	})
	return seq, err
}

// WALStats reports the write-ahead log position (zero value for in-memory
// databases).
type WALStats = wal.Stats

// WALStats returns the current WAL position and fsync policy.
func (db *DB) WALStats() WALStats {
	if db.wal == nil {
		return WALStats{}
	}
	return db.wal.Stat()
}

// Result is the outcome of one statement.
type Result struct {
	// Columns names the result columns (SELECT only).
	Columns []string
	// Rows holds SELECT results.
	Rows []Row
	// Affected is the DML row count.
	Affected int
	// Message carries DDL acknowledgements and EXPLAIN output.
	Message string
	// BatchMode reports the effective execution mode of a SELECT.
	BatchMode bool
	// MetadataOnly reports that a SELECT was answered entirely from segment
	// metadata (COUNT(*)/MIN/MAX shortcuts) without touching row data.
	MetadataOnly bool
	// Stats summarizes scan-level pushdown effects of a SELECT.
	Stats QueryStats
	// Operators summarizes per-operator execution of a batch-mode SELECT,
	// merged across exchange worker replicas (see OperatorStats).
	Operators []OperatorStats
}

// OperatorStats is one operator's merged execution summary: output batches
// and rows summed across its worker replicas, the replica count that actually
// ran, and the wall time of the slowest replica (replicas overlap, so summing
// their wall times would overstate elapsed time).
type OperatorStats struct {
	Op      string
	Workers int
	Batches int64
	Rows    int64
	MaxWall time.Duration
}

// QueryStats aggregates scan counters across a query's scans.
type QueryStats struct {
	RowGroups            int64 // row groups considered
	RowGroupsEliminated  int64 // skipped via segment metadata
	SegmentsOpened       int64
	RowsConsidered       int64
	RowsAfterRangePush   int64
	RowsAfterBloomFilter int64
	RowsOutput           int64
	DeltaRowsScanned     int64
	Spills               int64
	// Late materialization: per-batch string column gathers that stayed
	// dict-coded vs. those decoded eagerly at the scan.
	StringColsCoded        int64
	StringColsMaterialized int64
}

// Exec parses and executes one SQL statement under a background context.
func (db *DB) Exec(stmt string) (*Result, error) {
	return db.ExecContext(context.Background(), stmt)
}

// ExecContext parses and executes one SQL statement under ctx. SELECTs honor
// cancellation and deadlines at batch granularity through the whole operator
// tree, including parallel scan workers; a cancelled query returns ctx.Err()
// (possibly wrapped in a QueryError naming the operator that observed it —
// errors.Is(err, context.Canceled) still matches).
func (db *DB) ExecContext(ctx context.Context, stmt string) (*Result, error) {
	r, err := db.engine.ExecContext(ctx, stmt)
	if err != nil {
		return nil, err
	}
	return convertResult(r), nil
}

// convertResult maps an engine result to the public Result shape.
func convertResult(r *sql.Result) *Result {
	out := &Result{Rows: r.Rows, Affected: r.Affected, Message: r.Message}
	if r.Schema != nil {
		for _, c := range r.Schema.Cols {
			out.Columns = append(out.Columns, c.Name)
		}
	}
	if r.Compiled != nil {
		out.BatchMode = r.Compiled.BatchMode
		out.MetadataOnly = r.Compiled.MetadataOnly
		for _, st := range r.Compiled.ScanStats {
			out.Stats.RowGroups += st.Groups
			out.Stats.RowGroupsEliminated += st.GroupsEliminated
			out.Stats.SegmentsOpened += st.SegmentsOpened
			out.Stats.RowsConsidered += st.RowsConsidered
			out.Stats.RowsAfterRangePush += st.RowsAfterRange
			out.Stats.RowsAfterBloomFilter += st.RowsAfterBloom
			out.Stats.RowsOutput += st.RowsOutput
			out.Stats.DeltaRowsScanned += st.DeltaRows
			out.Stats.StringColsCoded += st.StringColsCoded
			out.Stats.StringColsMaterialized += st.StringColsMaterialized
		}
		if tr := r.Compiled.Tracker; tr != nil {
			out.Stats.Spills = tr.Spills()
		}
		out.Operators = mergeOpStats(r.Compiled.OpStats)
	}
	return out
}

// mergeOpStats folds per-instance operator counters into one row per
// operator name, in first-seen (roughly top-down plan) order. Instances that
// never ran — replicas on compiled-but-not-taken paths — are skipped.
func mergeOpStats(stats []*batchexec.OpStats) []OperatorStats {
	var merged []OperatorStats
	byOp := map[string]int{}
	for _, st := range stats {
		if st.Batches == 0 && st.WallNs == 0 {
			continue
		}
		i, ok := byOp[st.Op]
		if !ok {
			i = len(merged)
			byOp[st.Op] = i
			merged = append(merged, OperatorStats{Op: st.Op})
		}
		m := &merged[i]
		m.Workers++
		m.Batches += st.Batches
		m.Rows += st.Rows
		if w := time.Duration(st.WallNs); w > m.MaxWall {
			m.MaxWall = w
		}
	}
	return merged
}

// Query is Exec for SELECT statements (alias for readability).
func (db *DB) Query(stmt string) (*Result, error) { return db.Exec(stmt) }

// QueryContext is ExecContext for SELECT statements (alias for readability).
func (db *DB) QueryContext(ctx context.Context, stmt string) (*Result, error) {
	return db.ExecContext(ctx, stmt)
}

// MustExec runs a statement and panics on error (setup code and examples).
func (db *DB) MustExec(stmt string) *Result {
	r, err := db.Exec(stmt)
	if err != nil {
		panic(fmt.Sprintf("apollo: %v", err))
	}
	return r
}

// --- Programmatic table access ---

// Table is a handle to a clustered columnstore table for programmatic bulk
// operations that bypass SQL parsing.
type Table struct {
	t  *table.Table
	db *DB
}

// CreateTable creates a table programmatically.
func (db *DB) CreateTable(name string, schema *Schema) (*Table, error) {
	opts := db.engine.TableOpts
	t, err := db.cat.Create(name, schema, opts)
	if err != nil {
		return nil, err
	}
	if db.cfg.TupleMoverInterval > 0 {
		t.StartTupleMover(db.cfg.TupleMoverInterval)
	}
	t.SetFailureObserver(db.state.Observe)
	return &Table{t: t, db: db}, nil
}

// Table returns a handle to an existing table.
func (db *DB) Table(name string) (*Table, error) {
	t, err := db.cat.Get(name)
	if err != nil {
		return nil, err
	}
	return &Table{t: t, db: db}, nil
}

// Tables lists table names.
func (db *DB) Tables() []string { return db.cat.List() }

// TableStats returns the optimizer's statistics snapshot for a table — live
// row count, per-column min/max/null counts, distinct estimates, and
// histograms — collecting or refreshing it through the planner's stats cache
// (the same snapshot cost-based optimization uses). SHOW STATS [FOR] name is
// the SQL equivalent.
func (db *DB) TableStats(name string) (*stats.TableStats, error) {
	ts, _, err := db.engine.TableStats(name)
	return ts, err
}

// BulkLoad loads rows through the bulk path (row groups compress directly
// when large enough; see §4.2).
func (t *Table) BulkLoad(rows []Row) error {
	return t.db.state.Gate(func() error { return t.t.BulkLoad(rows) })
}

// Insert trickle-inserts one row into the table's delta store.
func (t *Table) Insert(row Row) error {
	return t.db.state.Gate(func() error {
		_, err := t.t.Insert(row)
		return err
	})
}

// Reorganize force-closes the open delta store and drains the tuple mover.
func (t *Table) Reorganize() error { return t.db.state.Gate(t.t.FlushOpen) }

// Sample draws up to n rows uniformly at random via bookmarks (§4.4).
func (t *Table) Sample(n int, seed int64) []Row {
	return t.t.Sample(n, rand.New(rand.NewSource(seed)))
}

// TableStats summarizes a table's physical state.
type TableStats struct {
	CompressedGroups int
	CompressedRows   int
	DeltaRows        int
	DeletedRows      int
	DiskBytes        int
	RawBytes         int
}

// Stats returns the table's physical statistics.
func (t *Table) Stats() TableStats {
	s := t.t.Stat()
	return TableStats{
		CompressedGroups: s.CompressedGroups,
		CompressedRows:   s.CompressedRows,
		DeltaRows:        s.DeltaRows,
		DeletedRows:      s.DeletedRows,
		DiskBytes:        s.DiskBytes,
		RawBytes:         s.RawBytes,
	}
}

// Rows returns the live row count.
func (t *Table) Rows() int { return t.t.Rows() }

// TableHealth is a snapshot of a table's tuple-mover health: success and
// failure counters, the last error, and the current retry backoff. See
// table.Health for field semantics.
type TableHealth = table.Health

// Health returns the table's tuple-mover health snapshot.
func (t *Table) Health() TableHealth { return t.t.Health() }

// --- Fault injection (testing / chaos engineering) ---

// FaultConfig configures probabilistic storage fault injection: transient
// read/write errors, read-side bit-flip corruption (caught by segment
// checksums), and added read latency. See storage.FaultConfig.
type FaultConfig = storage.FaultConfig

// InjectStorageFaults installs a fault injector on the database's blob
// store. Transient read errors are retried with bounded exponential backoff;
// corruption fails fast with an error naming the blob. Pass a zero rate
// config with only ReadLatency set to simulate slow storage. Returns the
// resolved RNG seed (cfg.Seed, or drawn from the database's private RNG when
// 0 — see Config.RandSeed) so a failing run can be replayed exactly; with
// Config.RandSeed set, the sequence of derived seeds is itself reproducible
// per instance, independent of other DBs in the process.
func (db *DB) InjectStorageFaults(cfg FaultConfig) int64 {
	if cfg.Seed == 0 {
		db.rngMu.Lock()
		cfg.Seed = db.rng.Int63()
		if cfg.Seed == 0 { // Int63 can return 0; 0 means "pick for me"
			cfg.Seed = 1
		}
		db.rngMu.Unlock()
	}
	inj := storage.NewFaultInjector(cfg)
	db.store.SetFaultInjector(inj)
	return inj.Seed()
}

// ClearStorageFaults removes any installed fault injector.
func (db *DB) ClearStorageFaults() { db.store.SetFaultInjector(nil) }

// WALFaults configures deterministic write-ahead-log fault injection.
type WALFaults struct {
	// AppendNoSpaceAt makes the Nth WAL append from now (1 = the next one)
	// and every later append fail with ENOSPC until cleared. 0 disables.
	AppendNoSpaceAt int64
	// FailSyncAt makes the Nth fsync from now fail (one-shot), permanently
	// poisoning the writer — the fail-stop path. 0 disables.
	FailSyncAt int64
}

// InjectWALFaults arms deterministic WAL faults on a durable database:
// ENOSPC on append (recoverable read-only degradation) and fsync failure
// (permanent fail-stop). No-op on in-memory databases.
func (db *DB) InjectWALFaults(f WALFaults) {
	if db.wal == nil {
		return
	}
	if f.AppendNoSpaceAt > 0 {
		db.wal.SetAppendNoSpace(f.AppendNoSpaceAt)
	}
	if f.FailSyncAt > 0 {
		db.wal.SetFailSync(f.FailSyncAt)
	}
}

// ClearWALFaults disarms injected WAL faults. A poison that already fired is
// permanent — only restart clears it, by design.
func (db *DB) ClearWALFaults() {
	if db.wal != nil {
		db.wal.SetAppendNoSpace(0)
		db.wal.SetFailSync(0)
	}
}

// --- Durability health & integrity scrubbing ---

// ErrReadOnly is matched (errors.Is) by every write rejected while the
// database is degraded to read-only after disk exhaustion. Reads keep
// working; the auto-probe restores writability once space returns.
var ErrReadOnly = degrade.ErrReadOnly

// ErrWALPoisoned is matched (errors.Is) by every write rejected after a
// failed fsync permanently fail-stopped the database (fsyncgate semantics:
// a failed fsync may have dropped the dirty pages, so no later fsync can be
// trusted; restart and recover from the log instead).
var ErrWALPoisoned = wal.ErrPoisoned

// IsReadOnlyError reports whether err is (or wraps) the read-only rejection.
func IsReadOnlyError(err error) bool { return errors.Is(err, degrade.ErrReadOnly) }

// IsPoisonedError reports whether err is (or wraps) the fail-stop rejection.
func IsPoisonedError(err error) bool { return errors.Is(err, wal.ErrPoisoned) }

// HealthMode is the database's write-availability mode.
type HealthMode = degrade.Mode

// Write-availability modes, increasing severity: writes accepted; writes
// rejected until disk space returns; writes rejected until restart.
const (
	ModeHealthy  = degrade.Healthy
	ModeReadOnly = degrade.ReadOnly
	ModePoisoned = degrade.Poisoned
)

// Health is a point-in-time durability-health snapshot of the database.
type Health struct {
	Mode  HealthMode // healthy / read_only / poisoned
	Cause string     // failure that entered the current mode ("" when healthy)
	Since time.Time  // when the current mode was entered
	// ReadOnlyEntered / Recovered count lifetime degrade/recover round trips.
	ReadOnlyEntered int64
	Recovered       int64
	WAL             WALStats               // log position, fsync counters, poisoned flag
	ScrubPasses     int64                  // completed integrity-scrub passes
	LastScrub       *ScrubReport           // most recent pass (nil if none yet)
	Tables          map[string]TableHealth // per-table mover + quarantine health
}

// Health reports the database's durability health: write-availability mode,
// WAL state, scrub progress, and per-table degradation.
func (db *DB) Health() Health {
	st := db.state.Snapshot()
	h := Health{
		Mode:            st.Mode,
		Since:           st.Since,
		ReadOnlyEntered: st.ReadOnlyEntered,
		Recovered:       st.Recovered,
		WAL:             db.WALStats(),
		Tables:          make(map[string]TableHealth),
	}
	if st.Cause != nil {
		h.Cause = st.Cause.Error()
	}
	if db.scrubber != nil {
		h.LastScrub, h.ScrubPasses = db.scrubber.Last()
	}
	for _, name := range db.cat.List() {
		if t, err := db.cat.Get(name); err == nil {
			h.Tables[name] = t.Health()
		}
	}
	return h
}

// ScrubReport summarizes one integrity-scrub pass. See scrub.Report.
type ScrubReport = scrub.Report

// Scrub runs one integrity-scrub pass synchronously: every blob's at-rest
// copies are checksum-verified (repairing from a surviving good copy,
// quarantining blobs corrupt everywhere) and closed WAL segments are
// re-validated. Safe alongside concurrent queries and the background
// scrubber.
func (db *DB) Scrub(ctx context.Context) (*ScrubReport, error) {
	return db.scrubber.RunPass(ctx)
}

// ScrubOptions override one manual scrub pass. BytesPerSec caps verification
// throughput for that pass: 0 uses the database's configured budget, a
// negative value disables pacing entirely (full-speed operator-forced pass).
type ScrubOptions struct {
	BytesPerSec int64
}

// ScrubWith is Scrub with per-pass overrides.
func (db *DB) ScrubWith(ctx context.Context, o ScrubOptions) (*ScrubReport, error) {
	if o.BytesPerSec == 0 {
		return db.scrubber.RunPass(ctx)
	}
	return db.scrubber.RunPassPaced(ctx, o.BytesPerSec)
}

// QuarantinedBlobs lists blob ids the scrubber has quarantined.
func (db *DB) QuarantinedBlobs() []uint64 {
	ids := db.store.Quarantined()
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	return out
}

// IsTransientError reports whether err is (or wraps) a transient storage
// fault that was retried and still failed.
func IsTransientError(err error) bool { return storage.IsTransient(err) }

// IsCorruptionError reports whether err is (or wraps) a storage corruption
// (checksum mismatch) error.
func IsCorruptionError(err error) bool { return storage.IsCorruption(err) }

// IsQueryError reports whether err is a structured query-execution error
// (operator-attributed failure, contained panic, or cancellation observed
// inside the operator tree).
func IsQueryError(err error) bool { return qerr.Is(err) }

// IOStats reports storage-level counters for the whole database.
type IOStats = storage.IOStats

// IOStats returns the database's cumulative storage counters.
func (db *DB) IOStats() IOStats { return db.store.Stats() }

// ResetIOStats zeroes the storage counters (benchmark harness use).
func (db *DB) ResetIOStats() { db.store.ResetStats() }

// EvictCaches empties the buffer pool so subsequent reads are cold.
func (db *DB) EvictCaches() { db.store.EvictAll() }

// DiskBytes reports total at-rest storage bytes.
func (db *DB) DiskBytes() int64 { return db.store.SizeOnDisk() }

// --- Engine metrics ---

// WriteMetrics dumps the process-wide engine metrics registry to w in
// Prometheus text exposition format: storage I/O and fault counters, segment
// decode histograms, scan/pushdown counters, operator fast-path hit rates,
// exchange worker activity, tuple-mover health gauges, and plan-compilation
// counters. The registry is shared by every DB in the process.
func (db *DB) WriteMetrics(w io.Writer) error { return metrics.Default.WriteText(w) }

// MetricsSnapshot returns the current value of every registered engine
// metric, keyed by metric name (histograms contribute name_count and
// name_sum entries). Useful for asserting deltas in tests.
func (db *DB) MetricsSnapshot() map[string]float64 { return metrics.Default.Snapshot() }

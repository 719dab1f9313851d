package plan

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"apollo/internal/exec"
	"apollo/internal/exec/batchexec"
	"apollo/internal/exec/rowexec"
	"apollo/internal/expr"
	"apollo/internal/metrics"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/table"
)

// Mode selects the execution rule set.
type Mode int

// Execution modes. Mode2014 is the paper's "upcoming release": the full batch
// repertoire. Mode2012 uses batch mode only for plans within the 2012
// repertoire, falling back to row mode otherwise. ModeRow forces the
// row-at-a-time engine. In both batch modes a plan with a join that has no
// equality key runs in row mode (batchSupported).
const (
	Mode2014 Mode = iota
	Mode2012
	ModeRow
)

func (m Mode) String() string {
	switch m {
	case Mode2012:
		return "2012"
	case ModeRow:
		return "row"
	default:
		return "2014"
	}
}

// Options control compilation.
type Options struct {
	Mode Mode
	// Parallel is the pipeline-wide degree of parallelism; <=1 is serial.
	// It sets the scan's row-group worker count and, above the scan, the
	// exchange worker count: aggregations run as parallel partial/final
	// aggregation and hash joins as partitioned parallel joins, with the
	// stateless stages between (filters, projections) replicated per worker.
	Parallel int

	// MemoryBudget caps hash-operator memory; 0 = unlimited. SpillStore
	// receives spill partitions (required for a finite budget to take
	// effect).
	MemoryBudget int64
	SpillStore   *storage.Store

	// Ablation switches: TestPaperClaims and the plan and optimizer tests
	// turn one feature off to compare against the default.
	NoSegmentElimination bool // disable min/max segment skipping + range pushdown
	NoBloom              bool // disable bitmap filter placement
	NoBuildSideSwap      bool // keep joins as written (also disables reordering)
	NoJoinReorder        bool // disable cost-based join enumeration only
	FixedDOP             bool // pin Parallel exactly; no per-pipeline reduction

	// StatsCache, when set, is reused across compilations (the SQL engine
	// keeps one per database so statistics are not re-collected per query).
	StatsCache *StatsCache

	// Tracer, when set, receives a structured trace event per operator
	// lifecycle transition during execution (batch mode only).
	Tracer *metrics.Tracer

	// View pins every scan to one read view: a snapshot timestamp and, inside
	// a transaction, the owning transaction id (its own provisional writes are
	// visible). The zero value reads each table's current stable snapshot.
	View table.ReadView

	// Reusable compiles for repeated execution (prepared statements): scans
	// record rebind hooks so Compiled.Rebind can point them at a fresh
	// snapshot per execution, and compile-time shortcuts that bake data into
	// the plan (metadata-only aggregation) are disabled.
	Reusable bool
}

// Compiled is an executable query.
type Compiled struct {
	Plan      Node // optimized logical plan
	BatchMode bool // effective execution mode
	Schema    *sqltypes.Schema

	batch batchexec.Operator
	row   rowexec.Operator

	// MetadataOnly reports that the query was answered entirely from
	// segment-directory metadata (no row data touched).
	MetadataOnly bool
	// ScanStats exposes per-scan pushdown counters (batch mode only),
	// in scan discovery order.
	ScanStats []*batchexec.ScanStats
	// OpStats exposes per-operator execution counters (batch mode only), one
	// entry per physical operator instance — exchange worker replicas
	// included, identified by OpStats.Worker. Instances on compiled-but-not-
	// taken paths (e.g. the serial probe replica a parallel join keeps for
	// its spill fallback) report zeros. Values settle when the query ends.
	OpStats []*batchexec.OpStats
	// Tracker exposes spill accounting (batch mode only).
	Tracker *batchexec.Tracker

	// QueryID is a process-unique id stamped on this compilation; trace
	// events carry it so interleaved queries can be demultiplexed.
	QueryID uint64
	// StatsByNode maps each logical plan node to the OpStats instances of
	// the physical operators lowered from it — the node's own operator plus
	// any per-worker stage replicas (batch mode only). EXPLAIN ANALYZE sums
	// these per node.
	StatsByNode map[Node][]*batchexec.OpStats
	// OpNameByNode records the physical operator name each node lowered to,
	// distinguishing a node's own instances from auxiliary stage replicas
	// registered under it (e.g. the key/argument projections feeding a
	// parallel aggregation).
	OpNameByNode map[Node]string
	// ScanStatsByNode maps each logical scan to its pushdown counters.
	ScanStatsByNode map[*Scan]*batchexec.ScanStats
	// EstRows maps each node of the optimized plan to the optimizer's
	// estimated output cardinality (EXPLAIN's est= annotation; EXPLAIN
	// ANALYZE pairs it with actual rows).
	EstRows map[Node]float64
	// BloomNotes records cost-approved bitmap-filter placements per join
	// node, e.g. "bloom->sales.cust" (batch mode only).
	BloomNotes map[Node]string

	// rebinds re-snapshots every scan (Options.Reusable compilations only).
	rebinds []func(table.ReadView)
}

// Rebind points every scan in a reusable compilation at a fresh snapshot
// taken under view, so the next execution reads current data instead of the
// compile-time snapshot. Call between executions only.
func (c *Compiled) Rebind(view table.ReadView) {
	for _, f := range c.rebinds {
		f(view)
	}
}

// Explain renders the optimized logical plan with the chosen mode, estimated
// cardinalities, and cost-approved bitmap-filter placements.
func (c *Compiled) Explain() string {
	mode := "row mode"
	if c.BatchMode {
		mode = "batch mode"
	}
	return "execution: " + mode + "\n" + TreeAnnotated(c.Plan, c.annotatePlanned)
}

// annotatePlanned renders the compile-time annotations for one node.
func (c *Compiled) annotatePlanned(n Node) string {
	var parts []string
	if est, ok := c.EstRows[n]; ok {
		parts = append(parts, fmt.Sprintf("[est=%d]", int64(est+0.5)))
	}
	if note := c.BloomNotes[n]; note != "" {
		parts = append(parts, "["+note+"]")
	}
	return strings.Join(parts, " ")
}

// Run executes the query under a background context.
func (c *Compiled) Run() ([]sqltypes.Row, error) {
	return c.RunContext(context.Background())
}

// RunContext executes the query and materializes the result rows. The
// context's cancellation and deadline are honored at batch granularity in
// batch mode and per row block in row mode; a cancelled query returns
// ctx.Err() after its operators (including parallel scan workers) shut down.
func (c *Compiled) RunContext(ctx context.Context) ([]sqltypes.Row, error) {
	if c.BatchMode {
		return batchexec.DrainContext(ctx, c.batch)
	}
	return rowexec.DrainContext(ctx, c.row)
}

// StreamContext executes the query, delivering each result row to fn as it
// is produced instead of materializing the result set. Rows may alias
// operator storage and are valid only for the duration of the call; fn must
// copy what it keeps. An error from fn aborts the query and is returned.
func (c *Compiled) StreamContext(ctx context.Context, fn func(sqltypes.Row) error) error {
	if c.BatchMode {
		return batchexec.StreamContext(ctx, c.batch, fn)
	}
	return rowexec.StreamContext(ctx, c.row, fn)
}

// Compile optimizes the logical plan and lowers it to a physical operator
// tree under the given options.
func Compile(root Node, opts Options) (*Compiled, error) {
	sc := opts.StatsCache
	if sc == nil {
		sc = NewStatsCache()
	}
	outSchema := root.Schema()

	root = pushDownFilters(root)
	if !opts.NoJoinReorder && !opts.NoBuildSideSwap {
		root = reorderJoins(root, sc)
	}
	root = extractJoinKeys(root)
	if !opts.NoBuildSideSwap {
		root = chooseBuildSides(root, sc)
	}
	root = pruneColumns(root)

	useBatch := opts.Mode != ModeRow && batchSupported(root, opts.Mode)
	c := &Compiled{Plan: root, BatchMode: useBatch, Schema: outSchema, QueryID: queryIDs.Add(1)}
	c.EstRows = map[Node]float64{}
	annotateEstimates(root, sc, c.EstRows)
	if useBatch {
		mCompiledBatch.Inc()
	} else {
		mCompiledRow.Inc()
	}

	if useBatch {
		cc := &batchCompiler{opts: opts, sc: sc, compiled: c}
		op, err := cc.compile(root)
		if err != nil {
			return nil, err
		}
		cc.placeBlooms()
		c.batch = op
		return c, nil
	}
	var reuse *Compiled
	if opts.Reusable {
		reuse = c
	}
	op, err := compileRow(root, opts.View, reuse)
	if err != nil {
		return nil, err
	}
	c.row = op
	return c, nil
}

// --- Batch-mode lowering ---

// queryIDs hands out process-unique query ids for trace demultiplexing.
var queryIDs atomic.Uint64

type pendingBloom struct {
	join    *batchexec.HashJoin
	scan    *batchexec.Scan
	scanCol int
	sel     float64 // estimated build selectivity relative to probe keys
}

type batchCompiler struct {
	opts     Options
	sc       *StatsCache
	compiled *Compiled
	tracker  *batchexec.Tracker
	// scanFor maps logical scans to their physical operator for bloom wiring.
	scanFor map[*Scan]*batchexec.Scan
	blooms  []pendingBloom
}

func (cc *batchCompiler) getTracker() *batchexec.Tracker {
	if cc.tracker == nil && cc.opts.MemoryBudget > 0 {
		cc.tracker = batchexec.NewTracker(cc.opts.MemoryBudget)
		cc.compiled.Tracker = cc.tracker
	}
	return cc.tracker
}

// compile lowers a plan node and wraps the physical operator in a Guard, the
// per-operator fault boundary (panic containment, operator attribution on
// errors, and per-batch cancellation checks).
func (cc *batchCompiler) compile(n Node) (batchexec.Operator, error) {
	op, name, err := cc.compileNode(n)
	if err != nil {
		return nil, err
	}
	cc.noteOpName(n, name)
	return cc.guard(n, op, name, -1), nil
}

// noteOpName records which physical operator a node lowered to, so EXPLAIN
// ANALYZE can tell the node's own stats from auxiliary replicas.
func (cc *batchCompiler) noteOpName(n Node, name string) {
	if cc.compiled.OpNameByNode == nil {
		cc.compiled.OpNameByNode = map[Node]string{}
	}
	cc.compiled.OpNameByNode[n] = name
}

// guard wraps op in its fault boundary and registers per-operator execution
// counters under the logical node n; worker is the exchange replica id (-1
// for the serial or final pipeline).
func (cc *batchCompiler) guard(n Node, op batchexec.Operator, name string, worker int) batchexec.Operator {
	g := batchexec.NewGuard(op, name)
	g.Stats = &batchexec.OpStats{Op: name, Worker: worker}
	g.Trace = cc.opts.Tracer
	g.Query = cc.compiled.QueryID
	cc.compiled.OpStats = append(cc.compiled.OpStats, g.Stats)
	if n != nil {
		if cc.compiled.StatsByNode == nil {
			cc.compiled.StatsByNode = map[Node][]*batchexec.OpStats{}
		}
		cc.compiled.StatsByNode[n] = append(cc.compiled.StatsByNode[n], g.Stats)
	}
	return g
}

// compilePipeline compiles n for use below an exchange: the top run of
// stateless per-batch stages (Filter, Project) is cut off and returned as a
// builder that stamps out one replica per exchange worker, and everything
// below the cut — the pipeline breaker or leaf — is compiled exactly once
// (scans must not be duplicated: bloom wiring and ScanStats registration
// assume one physical scan per logical scan, and the scan's own row-group
// workers already parallelize it).
func (cc *batchCompiler) compilePipeline(n Node) (batchexec.Operator, func(src batchexec.Operator, worker int) batchexec.Operator, error) {
	var steps []Node
	base := n
cut:
	for {
		switch x := base.(type) {
		case *Filter:
			steps = append(steps, x)
			base = x.In
		case *Project:
			steps = append(steps, x)
			base = x.In
		default:
			break cut
		}
	}
	baseOp, err := cc.compile(base)
	if err != nil {
		return nil, nil, err
	}
	if len(steps) > 0 {
		mPipelinesCut.Inc()
	}
	chain := func(src batchexec.Operator, worker int) batchexec.Operator {
		if worker >= 0 {
			mStagesReplicated.Add(int64(len(steps)))
		}
		op := src
		for i := len(steps) - 1; i >= 0; i-- {
			switch x := steps[i].(type) {
			case *Filter:
				cc.noteOpName(x, "filter")
				op = cc.guard(x, &batchexec.Filter{In: op, Pred: x.Pred}, "filter", worker)
			case *Project:
				cc.noteOpName(x, "project")
				op = cc.guard(x, batchexec.NewProject(op, x.Exprs, x.Names), "project", worker)
			}
		}
		return op
	}
	return baseOp, chain, nil
}

func (cc *batchCompiler) compileNode(n Node) (batchexec.Operator, string, error) {
	switch x := n.(type) {
	case *Scan:
		op, err := cc.compileScan(x)
		return op, "scan", err

	case *Filter:
		in, err := cc.compile(x.In)
		if err != nil {
			return nil, "", err
		}
		return &batchexec.Filter{In: in, Pred: x.Pred}, "filter", nil

	case *Project:
		in, err := cc.compile(x.In)
		if err != nil {
			return nil, "", err
		}
		return batchexec.NewProject(in, x.Exprs, x.Names), "project", nil

	case *Join:
		op, err := cc.compileJoin(x)
		return op, "hashjoin", err

	case *Agg:
		// Metadata-only answers are computed at compile time from the
		// snapshot, so they cannot serve a reusable (prepared) plan.
		if !cc.opts.Reusable {
			if op, ok := tryMetadataAgg(x, cc.opts.View); ok {
				cc.compiled.MetadataOnly = true
				return op, "metaagg", nil
			}
		}
		return cc.compileAgg(x)

	case *Sort:
		in, err := cc.compile(x.In)
		if err != nil {
			return nil, "", err
		}
		return &batchexec.Sort{In: materializeIfStrings(in), Keys: x.Keys}, "sort", nil

	case *Limit:
		// ORDER BY + LIMIT compiles to the batch Top-N operator.
		if s, ok := x.In.(*Sort); ok && x.N >= 0 && x.Offset == 0 {
			in, err := cc.compile(s.In)
			if err != nil {
				return nil, "", err
			}
			return &batchexec.TopN{In: materializeIfStrings(in), Keys: s.Keys, N: x.N}, "topn", nil
		}
		in, err := cc.compile(x.In)
		if err != nil {
			return nil, "", err
		}
		return &batchexec.Limit{In: in, Offset: x.Offset, N: x.N}, "limit", nil

	case *Union:
		ins := make([]batchexec.Operator, len(x.Ins))
		for i, c := range x.Ins {
			op, err := cc.compile(c)
			if err != nil {
				return nil, "", err
			}
			ins[i] = op
		}
		return &batchexec.UnionAll{Ins: ins}, "union", nil

	default:
		return nil, "", fmt.Errorf("plan: cannot lower %T to batch mode", n)
	}
}

// materializeIfStrings is the planner's late-materialization point: in front
// of row-consuming operators (Sort, TopN) a dict-coded string vector would be
// decoded row by row, so insert an explicit Materialize boundary that decodes
// each surviving batch once, vectorized. Plans without string columns are
// unaffected.
func materializeIfStrings(in batchexec.Operator) batchexec.Operator {
	for _, c := range in.Schema().Cols {
		if c.Typ == sqltypes.String {
			return batchexec.NewGuard(&batchexec.Materialize{In: in}, "materialize")
		}
	}
	return in
}

// compileScan splits the scan filter into exact encoded-domain pushdowns and
// a residual predicate, then builds the vectorized scan.
func (cc *batchCompiler) compileScan(x *Scan) (*batchexec.Scan, error) {
	cols := x.Cols
	if cols == nil {
		cols = make([]int, x.Table.Schema.Len())
		for i := range cols {
			cols[i] = i
		}
	}
	s := batchexec.NewScan(x.Table.SnapshotView(cc.opts.View), cols)
	if cc.opts.Reusable {
		t := x.Table
		cc.compiled.rebinds = append(cc.compiled.rebinds, func(v table.ReadView) {
			s.Rebind(t.SnapshotView(v))
		})
	}
	s.Parallel = cc.opts.Parallel
	s.Stats = &batchexec.ScanStats{}
	cc.compiled.ScanStats = append(cc.compiled.ScanStats, s.Stats)
	if cc.compiled.ScanStatsByNode == nil {
		cc.compiled.ScanStatsByNode = map[*Scan]*batchexec.ScanStats{}
	}
	cc.compiled.ScanStatsByNode[x] = s.Stats

	var residual []expr.Expr
	if x.Filter != nil {
		for _, c := range expr.Conjuncts(x.Filter) {
			if cc.opts.NoSegmentElimination {
				residual = append(residual, c)
				continue
			}
			if pd, ok := exactPushdown(c, x.Table.Schema); ok {
				s.Pushdowns = append(s.Pushdowns, pd)
				continue
			}
			if dp, ok := dictPushdown(c, x.Table.Schema); ok {
				s.DictPreds = append(s.DictPreds, dp)
				continue
			}
			residual = append(residual, c)
		}
	}
	if len(residual) > 0 {
		// Residual is bound to the table schema; remap to scan output
		// positions (prune guarantees coverage).
		m := map[int]int{}
		for i, c := range cols {
			m[c] = i
		}
		s.Residual = expr.Remap(andAll(residual), m)
	}
	if cc.scanFor == nil {
		cc.scanFor = map[*Scan]*batchexec.Scan{}
	}
	cc.scanFor[x] = s
	return s, nil
}

// exactPushdown recognizes conjuncts whose range semantics are preserved
// exactly by the scan's closed-interval encoded-domain filter, so the
// conjunct can be dropped from the residual: =, <=, >= on any orderable
// column; < and > on integer-family columns (converted to closed bounds);
// BETWEEN-style bounds arrive as separate conjuncts.
func exactPushdown(c expr.Expr, schema *sqltypes.Schema) (batchexec.Pushdown, bool) {
	for col := 0; col < schema.Len(); col++ {
		lo, hi, loOpen, hiOpen, ok := expr.StrictColRange(c, col)
		if !ok {
			continue
		}
		colTyp := schema.Cols[col].Typ
		intLike := colTyp == sqltypes.Int64 || colTyp == sqltypes.Date || colTyp == sqltypes.Bool
		// Convert open integer bounds to closed ones.
		if loOpen {
			if !intLike || lo.Typ == sqltypes.Float64 {
				return batchexec.Pushdown{}, false
			}
			lo = sqltypes.Value{Typ: lo.Typ, I: lo.I + 1}
		}
		if hiOpen {
			if !intLike || hi.Typ == sqltypes.Float64 {
				return batchexec.Pushdown{}, false
			}
			hi = sqltypes.Value{Typ: hi.Typ, I: hi.I - 1}
		}
		// Bounds must share the column's comparison domain.
		if !lo.Null && !compatibleBound(colTyp, lo.Typ) {
			return batchexec.Pushdown{}, false
		}
		if !hi.Null && !compatibleBound(colTyp, hi.Typ) {
			return batchexec.Pushdown{}, false
		}
		return batchexec.Pushdown{Col: col, Lo: lo, Hi: hi}, true
	}
	return batchexec.Pushdown{}, false
}

// dictPushdown recognizes arbitrary single-column predicates over string
// columns (LIKE, IN, <>, OR-of-equalities, ...) that can be evaluated once
// per dictionary entry on compressed data. Predicates that hold on NULL
// input stay in the residual, since encoded evaluation skips NULL rows.
func dictPushdown(c expr.Expr, schema *sqltypes.Schema) (batchexec.DictPred, bool) {
	refs := map[int]bool{}
	expr.ReferencedCols(c, refs)
	if len(refs) != 1 {
		return batchexec.DictPred{}, false
	}
	var col int
	for r := range refs {
		col = r
	}
	if schema.Cols[col].Typ != sqltypes.String {
		return batchexec.DictPred{}, false
	}
	single := expr.Remap(c, map[int]int{col: 0})
	nullRes := single.Eval(sqltypes.Row{sqltypes.NewNull(sqltypes.String)})
	if !nullRes.Null && nullRes.I != 0 {
		return batchexec.DictPred{}, false // true on NULL (e.g. IS NULL)
	}
	return batchexec.DictPred{Col: col, Pred: single}, true
}

func compatibleBound(col, bound sqltypes.Type) bool {
	if col == sqltypes.String {
		return bound == sqltypes.String
	}
	if col == sqltypes.Float64 || bound == sqltypes.Float64 {
		return col.Numeric() && bound.Numeric()
	}
	return bound != sqltypes.String
}

// compileJoin lowers a join. With a pipeline DOP above one the probe phase
// becomes a partitioned exchange: the probe-side filter/project stages are
// replicated per worker over a shared source, and the join partitions its
// build side into one private core per worker (exchange.go). The serial probe
// replica is kept — it carries the schema and the grace-hash spill fallback.
func (cc *batchCompiler) compileJoin(x *Join) (batchexec.Operator, error) {
	if len(x.LeftKeys) == 0 {
		return nil, fmt.Errorf("plan: batch join requires at least one equality key")
	}
	dop := cc.dopFor(x.Left)
	var probe batchexec.Operator
	var shared *batchexec.SharedSource
	var pipes []batchexec.Operator
	if dop > 1 {
		base, chain, err := cc.compilePipeline(x.Left)
		if err != nil {
			return nil, err
		}
		shared = batchexec.NewSharedSource(base)
		pipes = make([]batchexec.Operator, dop)
		for w := range pipes {
			pipes[w] = chain(shared.Worker(), w)
		}
		probe = chain(base, -1)
	} else {
		var err error
		probe, err = cc.compile(x.Left)
		if err != nil {
			return nil, err
		}
	}
	build, err := cc.compile(x.Right)
	if err != nil {
		return nil, err
	}
	pk, bk, err := keyColumns(x.LeftKeys, x.RightKeys)
	if err != nil {
		return nil, err
	}
	j, err := batchexec.NewHashJoin(probe, build, pk, bk, x.Type, x.Residual)
	if err != nil {
		return nil, err
	}
	j.Tracker = cc.getTracker()
	j.SpillStore = cc.opts.SpillStore
	if dop > 1 {
		j.Parallel = dop
		j.ProbeExchange = shared
		j.ProbePipes = pipes
	}

	// Bitmap filter opportunity: single-key inner/semi join whose probe key
	// traces to a base-table scan column. Place the filter only when the
	// estimated probe+output work it saves exceeds the cost of building it
	// from the build keys and testing it on every probe row.
	if !cc.opts.NoBloom && len(x.LeftKeys) == 1 && (x.Type == exec.Inner || x.Type == exec.LeftSemi) {
		if key, ok := x.LeftKeys[0].(*expr.ColRef); ok {
			if scanNode, tableCol, ok := traceToScan(x.Left, key.Idx); ok {
				if phys, ok := cc.scanFor[scanNode]; ok {
					buildRows := estimateRows(x.Right, cc.sc)
					probeRows := estimateRows(x.Left, cc.sc)
					outRows := estimateRows(x, cc.sc)
					passFrac := 1.0
					if probeRows > 0 {
						passFrac = clampF(outRows/probeRows, 0, 1)
					}
					benefit := probeRows * (1 - passFrac) * costBloomSavedRow
					cost := buildRows*costBloomBuildRow + probeRows*costBloomTestRow
					if benefit > cost && buildRows < probeRows {
						cc.blooms = append(cc.blooms, pendingBloom{join: j, scan: phys, scanCol: tableCol})
						cc.noteBloom(x, scanNode, tableCol)
						mBloomsPlaced.Inc()
					} else {
						mBloomsCostSkipped.Inc()
					}
				}
			}
		}
	}
	return j, nil
}

// noteBloom records a placement for EXPLAIN output.
func (cc *batchCompiler) noteBloom(join Node, scanNode *Scan, tableCol int) {
	if cc.compiled.BloomNotes == nil {
		cc.compiled.BloomNotes = map[Node]string{}
	}
	cc.compiled.BloomNotes[join] = fmt.Sprintf("bloom->%s.%s",
		scanNode.Table.Name, scanNode.Table.Schema.Cols[tableCol].Name)
}

// traceToScan follows a column reference down through filters, projections of
// plain columns, and the probe side of joins, to the base-table scan column
// it originates from.
func traceToScan(n Node, col int) (*Scan, int, bool) {
	switch x := n.(type) {
	case *Scan:
		if x.Cols == nil {
			return x, col, true
		}
		return x, x.Cols[col], true
	case *Filter:
		return traceToScan(x.In, col)
	case *Project:
		if cr, ok := x.Exprs[col].(*expr.ColRef); ok {
			return traceToScan(x.In, cr.Idx)
		}
		return nil, 0, false
	case *Join:
		lw := x.Left.Schema().Len()
		if col < lw {
			return traceToScan(x.Left, col)
		}
		// Build-side columns pass through inner joins unchanged; tracing them
		// serves NDV estimation (blooms only ever trace probe-side keys).
		if x.Type == exec.Inner {
			return traceToScan(x.Right, col-lw)
		}
		return nil, 0, false
	default:
		return nil, 0, false
	}
}

// placeBlooms wires pending bitmap filters from joins to scans.
func (cc *batchCompiler) placeBlooms() {
	for _, pb := range cc.blooms {
		target := &batchexec.BloomTarget{}
		pb.join.BloomOut = target
		pb.scan.Blooms = append(pb.scan.Blooms, batchexec.BloomPred{Col: pb.scanCol, Target: target})
	}
}

// compileAgg inserts a projection materializing group keys and aggregate
// arguments as columns, then builds the vectorized hash aggregation. With a
// pipeline DOP above one, the aggregation is cut into partial/final form:
// each exchange worker runs a replica of the filter/project stages plus the
// key/argument projection feeding a private partial aggregation, and the
// final merge combines the partial states. DISTINCT aggregates keep the
// serial operator (their partial states are not mergeable).
func (cc *batchCompiler) compileAgg(x *Agg) (batchexec.Operator, string, error) {
	var exprs []expr.Expr
	var names []string
	for i, g := range x.GroupBy {
		exprs = append(exprs, g)
		names = append(names, x.Names[i])
	}
	aggs := make([]exec.AggSpec, len(x.Aggs))
	for i, sp := range x.Aggs {
		aggs[i] = sp
		if sp.Arg != nil {
			pos := len(exprs)
			exprs = append(exprs, sp.Arg)
			names = append(names, fmt.Sprintf("_arg%d", i))
			aggs[i].Arg = expr.NewColRef(pos, names[pos], sp.Arg.Type())
		}
	}
	groupBy := make([]int, len(x.GroupBy))
	for i := range groupBy {
		groupBy[i] = i
	}

	if dop := cc.dopFor(x.In); dop > 1 && batchexec.ParallelizableAggs(aggs) {
		base, chain, err := cc.compilePipeline(x.In)
		if err != nil {
			return nil, "", err
		}
		shared := batchexec.NewSharedSource(base)
		pipes := make([]batchexec.Operator, dop)
		for w := range pipes {
			pipes[w] = cc.guard(x, batchexec.NewProject(chain(shared.Worker(), w), exprs, names), "project", w)
		}
		agg := batchexec.NewParallelAgg(shared, pipes, groupBy, x.Names, aggs)
		agg.Tracker = cc.getTracker()
		agg.SpillStore = cc.opts.SpillStore
		return agg, "parallelagg", nil
	}

	in, err := cc.compile(x.In)
	if err != nil {
		return nil, "", err
	}
	var inOp batchexec.Operator = batchexec.NewProject(in, exprs, names)
	agg := batchexec.NewHashAgg(inOp, groupBy, x.Names, aggs)
	agg.Tracker = cc.getTracker()
	agg.SpillStore = cc.opts.SpillStore
	return agg, "hashagg", nil
}

// keyColumns requires join keys to be plain column references.
func keyColumns(lks, rks []expr.Expr) ([]int, []int, error) {
	pk := make([]int, len(lks))
	bk := make([]int, len(rks))
	for i := range lks {
		lc, lok := lks[i].(*expr.ColRef)
		rc, rok := rks[i].(*expr.ColRef)
		if !lok || !rok {
			return nil, nil, fmt.Errorf("plan: join keys must be columns (got %s = %s)", lks[i], rks[i])
		}
		pk[i] = lc.Idx
		bk[i] = rc.Idx
	}
	return pk, bk, nil
}

// --- Row-mode lowering ---

// compileRow lowers to the row engine. When reuse is non-nil (a reusable
// compilation), each scan registers a rebind hook on it.
func compileRow(n Node, view table.ReadView, reuse *Compiled) (rowexec.Operator, error) {
	switch x := n.(type) {
	case *Scan:
		cols := x.Cols
		var filter expr.Expr
		if x.Filter != nil {
			filter = x.Filter // bound to full table schema, as Scan expects
		}
		s := rowexec.NewScan(x.Table.SnapshotView(view), filter, cols)
		if reuse != nil {
			t := x.Table
			reuse.rebinds = append(reuse.rebinds, func(v table.ReadView) {
				s.Rebind(t.SnapshotView(v))
			})
		}
		return s, nil

	case *Filter:
		in, err := compileRow(x.In, view, reuse)
		if err != nil {
			return nil, err
		}
		return &rowexec.Filter{In: in, Pred: x.Pred}, nil

	case *Project:
		in, err := compileRow(x.In, view, reuse)
		if err != nil {
			return nil, err
		}
		return rowexec.NewProject(in, x.Exprs, x.Names), nil

	case *Join:
		probe, err := compileRow(x.Left, view, reuse)
		if err != nil {
			return nil, err
		}
		build, err := compileRow(x.Right, view, reuse)
		if err != nil {
			return nil, err
		}
		if len(x.LeftKeys) == 0 {
			// Keyless join: nested loops over the residual.
			return rowexec.NewNestedLoopJoin(probe, build, x.Residual, x.Type)
		}
		return rowexec.NewHashJoin(probe, build, x.LeftKeys, x.RightKeys, x.Type, x.Residual)

	case *Agg:
		in, err := compileRow(x.In, view, reuse)
		if err != nil {
			return nil, err
		}
		return rowexec.NewHashAggregate(in, x.GroupBy, x.Names, x.Aggs), nil

	case *Sort:
		in, err := compileRow(x.In, view, reuse)
		if err != nil {
			return nil, err
		}
		return &rowexec.Sort{In: in, Keys: x.Keys}, nil

	case *Limit:
		in, err := compileRow(x.In, view, reuse)
		if err != nil {
			return nil, err
		}
		return &rowexec.Limit{In: in, Offset: x.Offset, N: x.N}, nil

	case *Union:
		ins := make([]rowexec.Operator, len(x.Ins))
		for i, c := range x.Ins {
			op, err := compileRow(c, view, reuse)
			if err != nil {
				return nil, err
			}
			ins[i] = op
		}
		return &rowexec.UnionAll{Ins: ins}, nil

	default:
		return nil, fmt.Errorf("plan: cannot lower %T to row mode", n)
	}
}

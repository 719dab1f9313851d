// Exchange operators: the degree-of-parallelism layer above the scan.
//
// PR-1 parallelized the scan itself (row-group workers gathered into one
// stream); everything downstream still ran on a single goroutine. This file
// extends parallelism through the rest of the pipeline with two exchange
// shapes, following the morsel-driven model:
//
//   - ParallelAgg: N pipeline workers pull batches from a SharedSource, run a
//     private filter/project/partial-aggregation pipeline each, and a final
//     merge combines the partial aggTable states (including any spill
//     partitions, whose group membership is no longer disjoint across
//     workers).
//
//   - Partitioned hash join (HashJoin.Parallel > 1): the build side is
//     hash-partitioned into P private join cores; probe batches are split by
//     the same hash and routed to the owning partition's worker, so each
//     build row is matched by exactly one goroutine and outer/semi/anti
//     semantics hold per partition.
//
// Both keep strings in code space: batches cross the exchange in dict-coded
// form (gatherVec moves codes, never strings), and partial aggregation and
// partition cores resolve each dictionary code to a key id at most once
// (keys.go). Partitions come from the one value hash, keyHasher.
package batchexec

import (
	"context"
	"errors"
	"sync"
	"time"

	"apollo/internal/exec"
	"apollo/internal/qerr"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/vector"
)

// SharedSource serializes one child operator behind a mutex so that N
// exchange workers can pull batches from it concurrently. The child is opened
// and closed exactly once by the enclosing exchange operator; workers reach
// it through per-worker views (Worker) that only call Next. Each batch is
// handed to exactly one worker, which owns it per the Operator contract
// (producers allocate fresh batches, so ownership transfers cleanly across
// goroutines).
type SharedSource struct {
	src  Operator
	mu   sync.Mutex
	done bool
	err  error
}

// NewSharedSource wraps src for concurrent consumption.
func NewSharedSource(src Operator) *SharedSource { return &SharedSource{src: src} }

// Base returns the wrapped operator; the enclosing exchange opens and closes
// it around a run.
func (s *SharedSource) Base() Operator { return s.src }

// Reset re-arms the source for a new run. The base must be (re)opened first.
func (s *SharedSource) Reset() {
	s.mu.Lock()
	s.done = false
	s.err = nil
	s.mu.Unlock()
}

// next hands the next batch to the calling worker. End-of-stream and errors
// are sticky: once the child returns nil or fails, every subsequent caller
// observes the same outcome without touching the child again.
func (s *SharedSource) next() (*vector.Batch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return nil, s.err
	}
	b, err := s.src.Next()
	if err != nil {
		s.done, s.err = true, err
		return nil, err
	}
	if b == nil {
		s.done = true
	}
	return b, nil
}

// Worker returns a new per-worker view of the shared source. Each worker
// pipeline gets its own view so Open carries that worker's context without
// racing with its siblings.
func (s *SharedSource) Worker() Operator { return &workerSource{shared: s} }

type workerSource struct {
	shared *SharedSource
	ctx    context.Context
}

func (w *workerSource) Schema() *sqltypes.Schema { return w.shared.src.Schema() }

func (w *workerSource) Open(ctx context.Context) error {
	w.ctx = ctx
	return nil
}

func (w *workerSource) Next() (*vector.Batch, error) {
	if err := w.ctx.Err(); err != nil {
		return nil, err
	}
	return w.shared.next()
}

func (w *workerSource) Close() error { return nil }

// ParallelizableAggs reports whether a set of aggregates can run as
// partial/final aggregation. DISTINCT aggregates hold per-group value sets
// whose partial states cannot be merged by adding counts and sums, so the
// planner keeps them on the serial HashAgg path.
func ParallelizableAggs(aggs []exec.AggSpec) bool {
	for i := range aggs {
		if aggs[i].Distinct {
			return false
		}
	}
	return true
}

// ParallelAgg is the exchange form of HashAgg: each Pipe (one per worker,
// typically replicated filter/project stages over a SharedSource view) feeds
// a private partial aggTable, and Open merges the partial states into the
// final result. Group-by keys and aggregate arguments are bound to the pipe
// schema exactly as HashAgg binds them to its input schema.
type ParallelAgg struct {
	Exchange *SharedSource
	Pipes    []Operator
	GroupBy  []int
	Names    []string
	Aggs     []exec.AggSpec

	Tracker    *Tracker
	SpillStore *storage.Store

	schema *sqltypes.Schema
	out    *Values
	tables []*aggTable
}

// NewParallelAgg builds a parallel partial/final aggregation over the given
// worker pipes (all reading, directly or through replicated stages, from ex).
func NewParallelAgg(ex *SharedSource, pipes []Operator, groupBy []int, names []string, aggs []exec.AggSpec) *ParallelAgg {
	return &ParallelAgg{Exchange: ex, Pipes: pipes, GroupBy: groupBy, Names: names, Aggs: aggs,
		schema: aggOutputSchema(pipes[0].Schema(), groupBy, names, aggs)}
}

// Schema implements Operator.
func (p *ParallelAgg) Schema() *sqltypes.Schema { return p.schema }

// Open implements Operator: runs the worker pipelines to completion, then
// merges their partial states.
func (p *ParallelAgg) Open(ctx context.Context) error {
	base := p.Exchange.Base()
	if err := base.Open(ctx); err != nil {
		return err
	}
	defer base.Close()
	p.Exchange.Reset()

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	nw := len(p.Pipes)
	tables := make([]*aggTable, nw)
	errs := make([]error, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if e := qerr.FromPanic("parallel-agg", qerr.NoGroup, recover()); e != nil {
					errs[w] = e
					cancel()
				}
			}()
			errs[w] = p.runWorker(wctx, w, tables)
			if errs[w] != nil {
				cancel()
			}
		}(w)
	}
	wg.Wait()
	p.tables = tables
	if err := firstExchangeError(ctx, errs); err != nil {
		return err
	}

	rows, err := mergeAggTables(ctx, p.Aggs, tables)
	if err != nil {
		return err
	}
	p.out = &Values{Rows: rows, Sch: p.schema}
	return p.out.Open(ctx)
}

func (p *ParallelAgg) runWorker(ctx context.Context, w int, tables []*aggTable) error {
	mExchangeWorkers.Inc()
	start := time.Now()
	defer func() { mExchangeBusy.Observe(time.Since(start).Seconds()) }()
	pipe := p.Pipes[w]
	if err := pipe.Open(ctx); err != nil {
		return err
	}
	defer pipe.Close()
	t := newAggTable(pipe.Schema(), p.GroupBy, p.Aggs, p.Tracker, p.SpillStore)
	tables[w] = t
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, err := pipe.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if err := t.addBatch(b); err != nil {
			return err
		}
	}
}

// Next implements Operator.
func (p *ParallelAgg) Next() (*vector.Batch, error) { return p.out.Next() }

// Close implements Operator.
func (p *ParallelAgg) Close() error {
	for _, t := range p.tables {
		if t != nil {
			t.release()
		}
	}
	p.tables = nil
	p.out = nil
	return nil
}

// firstExchangeError picks the error to surface from a worker fan-in: the
// first real failure wins; pure cancellation collapses to the query context's
// verdict (a sibling's failure cancels the worker context, and that induced
// cancellation must not mask the root cause).
func firstExchangeError(ctx context.Context, errs []error) error {
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeAggTables combines the partial aggregation states of the worker
// tables in one table, which resolves groups through its own key columns,
// as any table does. Each worker's in-memory groups resolve there and merge
// their partial states (adding counts and sums, comparing min/max). Spilled
// rows cannot be aggregated per partition the way the serial path does — a
// group can be in memory in one worker and spilled by another, so
// partitions no longer hold disjoint group sets — so every spilled batch
// folds into the same table. The merge charges no grant: by then the
// workers' grants are charged, and the merged group set is bounded by the
// union of what the workers held.
func mergeAggTables(ctx context.Context, aggs []exec.AggSpec, tables []*aggTable) ([]sqltypes.Row, error) {
	t0 := tables[0]
	m := newAggTable(t0.inSchema, t0.groupBy, aggs, nil, nil)
	for _, t := range tables {
		if t == nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.mergeGroups(t.order)
		for _, part := range t.parts {
			if part == nil {
				continue
			}
			batches, err := part.readAll(vector.DefaultBatchSize)
			if err != nil {
				return nil, err
			}
			for _, b := range batches {
				if err := m.addBatch(b); err != nil {
					return nil, err
				}
			}
		}
		t.parts = nil
	}
	return finalizeAll(make([]sqltypes.Row, 0, len(m.order)), aggs, m.order)
}

// mergeGroups resolves another table's groups in t, feeding their key
// values to t as key batches, and merges their partial states into t's.
func (t *aggTable) mergeGroups(groups []*aggGroup) {
	vecs := make([]*vector.Vector, t.inSchema.Len())
	for len(groups) > 0 {
		n := min(len(groups), vector.DefaultBatchSize)
		for c, g := range t.groupBy {
			v := vector.NewVector(t.inSchema.Cols[g].Typ, n)
			for i, o := range groups[:n] {
				v.SetValue(i, o.keyVals[c])
			}
			vecs[g] = v
		}
		t.resolve(vecs, n)
		for i, o := range groups[:n] {
			t.ptrs[i].merge(t.aggs, o)
		}
		groups = groups[n:]
	}
}

// --- Partitioned parallel hash join runtime ---

// parallelJoin is the runtime state of a partitioned parallel probe phase:
// splitter goroutines pull probe batches from the worker pipes and route
// per-partition sub-batches to prober goroutines (one per partition, each
// owning a private joinCore); probers emit joined batches into the gather
// channel that HashJoin.Next drains.
type parallelJoin struct {
	out    chan *vector.Batch
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once
	err    error
}

func (pj *parallelJoin) fail(err error) {
	pj.once.Do(func() {
		pj.err = err
		pj.cancel()
	})
}

// shutdown cancels the workers and drains the gather channel until the
// closer goroutine has closed it, so no goroutine leaks past Close.
func (pj *parallelJoin) shutdown() {
	pj.cancel()
	for range pj.out {
	}
}

// startParallel builds P private partition cores from the in-memory build
// side and launches the probe exchange. The build must have fit in its grant
// (overflow takes the serial grace-hash path instead).
func (h *HashJoin) startParallel(ctx context.Context, build *buildSide) error {
	nParts := h.Parallel

	// Partition build rows by key hash; each partition gets a private core.
	// The exchange hashes values, not packed ids: ids belong to one core's
	// table, and the splitters route probe rows before any core exists.
	idxs := make([][]int32, nParts)
	for i, hv := range h.hasher.hash(build.cols, h.BuildKeys, build.len) {
		p := partOf(hv, nParts)
		idxs[p] = append(idxs[p], int32(i))
	}
	bs := h.Build.Schema()
	cores := make([]*joinCore, nParts)
	coreErrs := make([]error, nParts)
	var bwg sync.WaitGroup
	for p := 0; p < nParts; p++ {
		bwg.Add(1)
		go func(p int) {
			defer bwg.Done()
			defer func() {
				if e := qerr.FromPanic("parallel-join-build", qerr.NoGroup, recover()); e != nil {
					coreErrs[p] = e
				}
			}()
			sub := vector.NewBatch(bs, len(idxs[p]))
			sub.SetNumRows(len(idxs[p]))
			for ci := range sub.Vecs {
				gatherVec(sub.Vecs[ci], build.cols[ci], idxs[p])
			}
			cores[p] = newJoinCore(h, &buildSide{cols: sub.Vecs, len: len(idxs[p])})
		}(p)
	}
	bwg.Wait()
	for _, err := range coreErrs {
		if err != nil {
			return err
		}
	}

	// Probe exchange: the planner may have provided replicated per-worker
	// pipes above a shared source; otherwise the workers read the probe
	// operator directly through one.
	shared := h.ProbeExchange
	pipes := h.ProbePipes
	if shared == nil {
		shared = NewSharedSource(h.Probe)
		pipes = make([]Operator, nParts)
		for w := range pipes {
			pipes[w] = shared.Worker()
		}
	}
	if err := shared.Base().Open(ctx); err != nil {
		return err
	}
	shared.Reset()

	wctx, cancel := context.WithCancel(ctx)
	pj := &parallelJoin{out: make(chan *vector.Batch, 2*nParts), cancel: cancel}
	h.par = pj

	route := make([]chan *vector.Batch, nParts)
	for p := range route {
		route[p] = make(chan *vector.Batch, 2)
	}

	var swg sync.WaitGroup
	for w := range pipes {
		swg.Add(1)
		pj.wg.Add(1)
		go func(w int) {
			defer pj.wg.Done()
			defer swg.Done()
			defer func() {
				if e := qerr.FromPanic("parallel-join-split", qerr.NoGroup, recover()); e != nil {
					pj.fail(e)
				}
			}()
			h.splitProbe(wctx, pj, pipes[w], route)
		}(w)
	}
	// Routing channels close once every splitter is done, releasing the
	// probers to emit their unmatched build rows.
	go func() {
		swg.Wait()
		for _, c := range route {
			close(c)
		}
	}()
	for p := 0; p < nParts; p++ {
		pj.wg.Add(1)
		go func(p int) {
			defer pj.wg.Done()
			defer func() {
				if e := qerr.FromPanic("parallel-join-probe", qerr.NoGroup, recover()); e != nil {
					pj.fail(e)
				}
			}()
			h.probePartition(wctx, pj, cores[p], route[p])
		}(p)
	}
	// Closer: after every worker exits, the gather channel closes and Next
	// observes end-of-stream (or pj.err).
	go func() {
		pj.wg.Wait()
		cancel()
		close(pj.out)
	}()
	return nil
}

// splitProbe pulls batches from one worker pipe and routes per-partition
// sub-batches. Rows are copied (gatherVec, codes stay codes) so partitions
// never share vector storage with each other or the source batch.
func (h *HashJoin) splitProbe(ctx context.Context, pj *parallelJoin, pipe Operator, route []chan *vector.Batch) {
	mExchangeWorkers.Inc()
	start := time.Now()
	defer func() { mExchangeBusy.Observe(time.Since(start).Seconds()) }()
	if err := pipe.Open(ctx); err != nil {
		pj.fail(err)
		return
	}
	defer pipe.Close()
	nParts := len(route)
	schema := pipe.Schema()
	var kh keyHasher
	for {
		if ctx.Err() != nil {
			return
		}
		b, err := pipe.Next()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				pj.fail(err)
			}
			return
		}
		if b == nil {
			return
		}
		b.Compact()
		n := b.NumRows()
		if n == 0 {
			continue
		}
		hs := kh.hash(b.Vecs, h.ProbeKeys, n)
		uniform := true
		for i, hv := range hs {
			hs[i] = uint64(partOf(hv, nParts))
			uniform = uniform && hs[i] == hs[0]
		}
		if uniform {
			// Whole batch owned by one partition: forward it without copying.
			select {
			case route[hs[0]] <- b:
			case <-ctx.Done():
				return
			}
			continue
		}
		lists := make([][]int32, nParts)
		for i, p := range hs {
			lists[p] = append(lists[p], int32(i))
		}
		for p, l := range lists {
			if len(l) == 0 {
				continue
			}
			sub := vector.NewBatch(schema, len(l))
			sub.SetNumRows(len(l))
			for ci := range sub.Vecs {
				gatherVec(sub.Vecs[ci], b.Vecs[ci], l)
			}
			select {
			case route[p] <- sub:
			case <-ctx.Done():
				return
			}
		}
	}
}

// probePartition joins routed probe batches against one partition core, then
// emits the partition's unmatched build rows (right/full outer).
func (h *HashJoin) probePartition(ctx context.Context, pj *parallelJoin, core *joinCore, in <-chan *vector.Batch) {
	mExchangeWorkers.Inc()
	start := time.Now()
	defer func() { mExchangeBusy.Observe(time.Since(start).Seconds()) }()
	for b := range in {
		if ctx.Err() != nil {
			return
		}
		for _, out := range core.probeBatch(b) {
			select {
			case pj.out <- out:
			case <-ctx.Done():
				return
			}
		}
	}
	if ctx.Err() != nil {
		return
	}
	for _, out := range core.unmatchedBuild() {
		select {
		case pj.out <- out:
		case <-ctx.Done():
			return
		}
	}
}

// nextParallel is HashJoin.Next in partitioned parallel mode: drain the
// gather channel until the closer reports completion or failure.
func (h *HashJoin) nextParallel() (*vector.Batch, error) {
	select {
	case b, ok := <-h.par.out:
		if !ok {
			if h.par.err != nil {
				return nil, h.par.err
			}
			return nil, h.ctx.Err()
		}
		return b, nil
	case <-h.ctx.Done():
		return nil, h.ctx.Err()
	}
}

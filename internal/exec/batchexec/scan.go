package batchexec

import (
	"context"
	"sync"
	"sync/atomic"

	"apollo/internal/bits"
	"apollo/internal/bloom"
	"apollo/internal/colstore"
	"apollo/internal/encoding"
	"apollo/internal/expr"
	"apollo/internal/qerr"
	"apollo/internal/sqltypes"
	"apollo/internal/table"
	"apollo/internal/vector"
)

// Pushdown is an exact, closed-interval range predicate on one table column
// that the scan evaluates on encoded data: numeric encodings translate the
// bounds into code space, dictionary encodings into a matching-code set.
// NULL bounds are unbounded on that side. Rows with NULL in the column never
// qualify (SQL range semantics).
type Pushdown struct {
	Col    int
	Lo, Hi sqltypes.Value
}

// DictPred is an arbitrary single-column predicate on a string column,
// evaluated on compressed data: for dictionary-encoded segments the
// predicate runs once per distinct dictionary entry (LIKE, IN, <>, ... in
// O(|dictionary|) instead of O(rows)). Pred is bound to a one-column row
// holding the value. The planner only pushes predicates that are not true
// on NULL input, since encoded evaluation skips NULL rows.
type DictPred struct {
	Col  int
	Pred expr.Expr
}

// BloomPred applies a join bitmap filter to a table column during the scan
// (§5's bitmap pushdown). The Target is filled by the hash-join build before
// the probe side (this scan) opens; a nil filter means no filtering.
type BloomPred struct {
	Col    int
	Target *BloomTarget
}

// ScanStats counts the scan's segment-elimination and pushdown effects.
// Fields are updated atomically (parallel scans share one instance).
type ScanStats struct {
	Groups           int64 // row groups considered
	GroupsScanned    int64 // groups that survived segment elimination
	GroupsEliminated int64 // skipped entirely via segment metadata
	SegmentsOpened   int64
	RowsConsidered   int64 // rows in non-eliminated groups
	RowsDeleted      int64 // rows dropped by delete bitmaps
	RowsAfterRange   int64 // rows surviving encoded-domain range pushdown
	RowsAfterBloom   int64 // rows surviving bitmap filters
	RowsResidual     int64 // rows dropped by the residual predicate (group side)
	RowsOutput       int64 // rows emitted (group side + delta side)
	DeltaRows        int64 // delta-store rows examined (row-mode side)
	DeltaRowsOutput  int64 // delta rows that qualified and were emitted

	// Late-materialization accounting: per batch, how many dict-encoded
	// string columns were emitted as raw codes (decoded lazily downstream)
	// versus eagerly decoded into strings (local-dict fallback).
	StringColsCoded        int64
	StringColsMaterialized int64
}

// Scan is the batch-mode columnstore scan. It produces the table columns
// listed in Cols (in that order); Residual is bound to those output
// positions. Compressed row groups flow through segment elimination, encoded
// pushdown, delete-bitmap filtering, bitmap (Bloom) filters, and residual
// filtering; delta-store rows take the row-at-a-time path with the same
// predicates, matching the paper's mixed-mode scanning of updatable tables.
type Scan struct {
	Snap      *table.Snapshot
	Cols      []int
	Pushdowns []Pushdown
	DictPreds []DictPred
	Residual  expr.Expr
	Blooms    []BloomPred
	Stats     *ScanStats
	Parallel  int // >1 enables a parallel gather exchange over row groups

	schema *sqltypes.Schema
	ctx    context.Context // query context, set by Open

	// Serial iteration state.
	gi      int
	cur     *groupCursor
	deltaI  int
	scratch *scanScratch

	// Parallel state. cancel aborts the workers' derived context; it fires
	// on Close, on query-context cancellation (inherited), and on the first
	// worker error so siblings stop streaming batches immediately.
	ch      chan *vector.Batch
	errOnce sync.Once
	err     error
	wg      sync.WaitGroup
	cancel  context.CancelFunc
}

// NewScan constructs a scan producing the given table columns.
func NewScan(snap *table.Snapshot, cols []int) *Scan {
	return &Scan{Snap: snap, Cols: cols, schema: snap.Schema.Project(cols)}
}

// Rebind points the scan at a fresh snapshot of the same table, so a reused
// compiled plan reads data as of its next execution rather than as of
// compilation. Call between executions only (Open resets iteration state).
func (s *Scan) Rebind(snap *table.Snapshot) { s.Snap = snap }

// Schema implements Operator.
func (s *Scan) Schema() *sqltypes.Schema { return s.schema }

// Open implements Operator.
func (s *Scan) Open(ctx context.Context) error {
	s.ctx = ctx
	s.gi, s.deltaI = 0, 0
	s.cur = nil
	s.err = nil
	s.errOnce = sync.Once{}
	if s.Stats == nil {
		s.Stats = &ScanStats{}
	} else {
		// Stats are a per-execution snapshot: a reused Compiled plan (or a
		// re-Opened operator tree) must not accumulate counts across runs.
		*s.Stats = ScanStats{}
	}
	if s.Parallel > 1 {
		s.startParallel(ctx)
	}
	return nil
}

// Close implements Operator.
func (s *Scan) Close() error {
	if s.scratch != nil {
		s.cur = nil // the cursor reads the scratch buffers
		scratchPool.Put(s.scratch)
		s.scratch = nil
	}
	if s.cancel != nil {
		s.cancel()
		// Drain so workers unblock and exit.
		for range s.ch {
		}
		s.wg.Wait()
		s.cancel = nil
		s.ch = nil
	}
	return nil
}

// Next implements Operator.
func (s *Scan) Next() (*vector.Batch, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	if s.Parallel > 1 {
		select {
		case b, ok := <-s.ch:
			if !ok {
				// Channel closed: all workers exited. s.err is published
				// before the close (workers finish before the closer's
				// Wait returns), so this read is safe.
				return nil, s.err
			}
			return b, nil
		case <-s.ctx.Done():
			return nil, s.ctx.Err()
		}
	}
	for {
		if s.cur != nil {
			if b := s.cur.nextBatch(); b != nil {
				return b, nil
			}
			s.cur = nil
		}
		if s.gi < len(s.Snap.Groups) {
			if err := s.ctx.Err(); err != nil {
				return nil, err
			}
			g := s.Snap.Groups[s.gi]
			s.gi++
			if s.scratch == nil {
				s.scratch = scratchPool.Get().(*scanScratch)
			}
			cur, err := s.openGroup(g, s.scratch)
			if err != nil {
				return nil, qerr.WithGroup("scan", g.ID, err)
			}
			s.cur = cur // may be nil (eliminated)
			continue
		}
		// Delta rows.
		if s.deltaI < len(s.Snap.Delta) {
			b := s.deltaBatch(&s.deltaI)
			if b != nil {
				return b, nil
			}
			continue
		}
		return nil, nil
	}
}

// --- Row-group processing ---

// filterChunk is the number of codes a filter decodes at a time.
const filterChunk = 1024

// scanScratch is one goroutine's buffers for processing row groups one
// after another: a group's cursor uses them until it is exhausted, and the
// next group reuses them. Batches never retain them (gathers copy values).
type scanScratch struct {
	codes []uint64 // one chunk of codes
	chunk []int    // the rows of one chunk
	ids   []int    // a selection's survivors
	batch []int    // the rows of one batch of an implicit selection
}

// scratchPool recycles scan buffers across scans and queries.
var scratchPool = sync.Pool{New: func() any {
	return &scanScratch{
		codes: make([]uint64, filterChunk),
		chunk: make([]int, 0, filterChunk),
		batch: make([]int, 0, vector.DefaultBatchSize),
	}
}}

// selection is the set of a row group's qualifying rows. It starts implicit
// — every row not in the snapshot's delete bitmap — with nothing
// materialised. The first filter walks the group in chunks of decoded codes
// and records only its survivors in ids; later filters narrow ids in place,
// reading the codes of survivors only.
type selection struct {
	rows     int
	del      *bits.Bitmap // snapshot deletes; nil = none
	n        int          // rows selected
	explicit bool         // ids holds the selection
	ids      []int        // ascending selected rows, once explicit
	next     int          // iteration position: a row while implicit, else an index into ids
}

// keepFunc narrows one chunk of a filter's input: ids are candidate rows, none
// of them NULL in the filtered column, and codes their codes, index-aligned.
// It returns the surviving prefix of ids, compacted in place.
type keepFunc func(ids []int, codes []uint64) []int

// narrow keeps the selected rows that are not NULL in r's column and whose
// code passes keep.
func (s *selection) narrow(r *colstore.ColumnReader, keep keepFunc, sc *scanScratch) {
	nulls := r.Nulls()
	if !s.explicit {
		out := sc.ids[:0]
		for start := 0; start < s.rows; start += filterChunk {
			codes := r.DecodeRange(start, sc.codes)
			ids := sc.chunk[:0]
			if s.del == nil && nulls == nil {
				for k := range codes {
					ids = append(ids, start+k)
				}
			} else {
				live := codes[:0]
				for k, c := range codes {
					if i := start + k; (s.del == nil || !s.del.Get(i)) && (nulls == nil || !nulls.Get(i)) {
						ids = append(ids, i)
						live = append(live, c)
					}
				}
				codes = live
			}
			out = append(out, keep(ids, codes)...)
		}
		sc.ids = out
		s.ids, s.explicit = out, true
		s.n = len(out)
		return
	}
	w := 0
	for at := 0; at < len(s.ids); at += filterChunk {
		ids := s.ids[at:min(at+filterChunk, len(s.ids))]
		codes := r.CodesAt(ids, sc.codes)
		if nulls != nil {
			m := 0
			for k, i := range ids {
				if !nulls.Get(i) {
					ids[m], codes[m] = i, codes[k]
					m++
				}
			}
			ids, codes = ids[:m], codes[:m]
		}
		w += copy(s.ids[w:], keep(ids, codes))
	}
	s.ids = s.ids[:w]
	s.n = w
}

// clear empties the selection.
func (s *selection) clear() {
	s.ids, s.explicit, s.n = s.ids[:0], true, 0
}

// nextIDs returns the next at most max selected rows, ascending; empty when
// the selection is exhausted. An implicit selection produces them on demand
// into buf.
func (s *selection) nextIDs(max int, buf []int) []int {
	if s.explicit {
		end := min(s.next+max, len(s.ids))
		ids := s.ids[s.next:end]
		s.next = end
		return ids
	}
	ids := buf[:0]
	for ; s.next < s.rows && len(ids) < max; s.next++ {
		if s.del == nil || !s.del.Get(s.next) {
			ids = append(ids, s.next)
		}
	}
	return ids
}

type groupCursor struct {
	scan    *Scan
	readers []*colstore.ColumnReader // one per output column
	sel     selection
	scratch *scanScratch
}

// openGroup applies segment elimination and encoded-domain filtering,
// returning a cursor over qualifying rows, or nil when the group is
// eliminated or empties out. The cursor uses sc until it is exhausted.
func (s *Scan) openGroup(g *colstore.RowGroup, sc *scanScratch) (*groupCursor, error) {
	st := s.Stats
	atomic.AddInt64(&st.Groups, 1)
	mScanGroups.Inc()

	// Segment elimination on metadata (§2.3).
	for _, p := range s.Pushdowns {
		if !g.Segs[p.Col].CanMatchRange(p.Lo, p.Hi) {
			atomic.AddInt64(&st.GroupsEliminated, 1)
			mScanGroupsEliminated.Inc()
			return nil, nil
		}
	}
	atomic.AddInt64(&st.GroupsScanned, 1)
	atomic.AddInt64(&st.RowsConsidered, int64(g.Rows))
	mScanRowsConsidered.Add(int64(g.Rows))

	sel := selection{rows: g.Rows, n: g.Rows, del: s.Snap.Deletes[g.ID]}
	if sel.del != nil {
		sel.n -= sel.del.Count()
	}
	atomic.AddInt64(&st.RowsDeleted, int64(g.Rows-sel.n))
	mScanRowsDeleted.Add(int64(g.Rows - sel.n))

	opened := make([]*colstore.ColumnReader, len(g.Segs))
	open := func(col int) (*colstore.ColumnReader, error) {
		if r := opened[col]; r != nil {
			return r, nil
		}
		r, err := s.Snap.OpenColumn(g, col)
		if err != nil {
			return nil, err
		}
		atomic.AddInt64(&st.SegmentsOpened, 1)
		opened[col] = r
		return r, nil
	}

	// Encoded-domain pushdown.
	for _, p := range s.Pushdowns {
		if sel.n == 0 {
			break
		}
		r, err := open(p.Col)
		if err != nil {
			return nil, err
		}
		if keep := rangeFilter(r, p); keep != nil {
			sel.narrow(r, keep, sc)
		} else {
			sel.clear()
		}
	}
	for _, dp := range s.DictPreds {
		if sel.n == 0 {
			break
		}
		r, err := open(dp.Col)
		if err != nil {
			return nil, err
		}
		sel.narrow(r, dictPredFilter(r, dp.Pred), sc)
	}
	atomic.AddInt64(&st.RowsAfterRange, int64(sel.n))

	// Bitmap (Bloom) filters on encoded or decoded values.
	for _, bp := range s.Blooms {
		if sel.n == 0 {
			break
		}
		if bp.Target == nil || bp.Target.F == nil {
			continue
		}
		r, err := open(bp.Col)
		if err != nil {
			return nil, err
		}
		if keep := bloomFilter(r, bp.Target.F); keep != nil {
			sel.narrow(r, keep, sc)
		} else {
			sel.clear()
		}
	}
	atomic.AddInt64(&st.RowsAfterBloom, int64(sel.n))

	if sel.n == 0 {
		return nil, nil
	}

	readers := make([]*colstore.ColumnReader, len(s.Cols))
	for i, col := range s.Cols {
		r, err := open(col)
		if err != nil {
			return nil, err
		}
		readers[i] = r
	}
	return &groupCursor{scan: s, readers: readers, sel: sel, scratch: sc}, nil
}

// rangeFilter returns the chunk filter of a range pushdown: a code-range
// compare when the encoding preserves order, the set of matching dictionary
// codes for strings, and a decode-and-compare otherwise (raw floats). It
// returns nil when the range provably matches no row of the segment.
func rangeFilter(r *colstore.ColumnReader, p Pushdown) keepFunc {
	if lo, hi, ok := r.CodeRange(p.Lo, p.Hi); ok {
		if lo > hi {
			return nil
		}
		return func(ids []int, codes []uint64) []int {
			out := ids[:0]
			for k, c := range codes {
				if c-lo <= hi-lo { // lo <= c <= hi in one unsigned compare
					out = append(out, ids[k])
				}
			}
			return out
		}
	}
	holds := func(v sqltypes.Value) bool { return inRange(v, p.Lo, p.Hi) }
	if r.Meta.Enc == colstore.EncDict {
		// Evaluate the range once per dictionary entry (string predicates on
		// compressed data).
		return keepCodeSet(r.CodeSetMatching(holds))
	}
	return keepDecoded(r, holds)
}

// dictPredFilter returns the chunk filter of an arbitrary predicate,
// evaluated once per dictionary entry for dictionary-encoded segments and per
// decoded value otherwise. NULL rows never reach it (the planner guarantees
// the predicate is not true on NULL).
func dictPredFilter(r *colstore.ColumnReader, pred expr.Expr) keepFunc {
	holds := func(v sqltypes.Value) bool {
		res := pred.Eval(sqltypes.Row{v})
		return !res.Null && res.I != 0
	}
	if r.Meta.Enc == colstore.EncDict {
		return keepCodeSet(r.CodeSetMatching(holds))
	}
	return keepDecoded(r, holds)
}

// bloomFilter returns the chunk filter testing rows against a join bitmap
// filter. Dictionary columns test each distinct dictionary entry once.
// Integer-family columns against an exact filter test offset-encoded codes
// directly — one add, compare and bit test per row — and it returns nil when
// the segment's min/max misses the key range. Other integer-family segments
// decode and test in a tight loop (hashing for a Bloom filter); float
// columns test decoded values.
func bloomFilter(r *colstore.ColumnReader, f *bloom.Filter) keepFunc {
	if r.Meta.Enc == colstore.EncDict {
		return keepCodeSet(r.CodeSetMatching(f.MayContain))
	}
	if r.Col.Typ == sqltypes.Float64 || r.Meta.Numeric.Kind == encoding.NumFloatRaw {
		return keepDecoded(r, f.MayContain)
	}
	num := r.Meta.Numeric
	if bm, exact := f.Exact(); exact {
		if r.Meta.Min.Null || !bm.Overlaps(r.Meta.Min.I, r.Meta.Max.I) {
			return nil
		}
		if num.Kind == encoding.NumOffset {
			// Code c holds Base+c, whose bit is c+off; values below the
			// key range wrap past Span.
			off := bm.Pos(num.Base)
			return func(ids []int, codes []uint64) []int {
				out := ids[:0]
				for k, c := range codes {
					if bm.Has(c + off) {
						out = append(out, ids[k])
					}
				}
				return out
			}
		}
	}
	return func(ids []int, codes []uint64) []int {
		out := ids[:0]
		for k, c := range codes {
			if f.MayContainInt(num.DecodeInt(c)) {
				out = append(out, ids[k])
			}
		}
		return out
	}
}

func inRange(v, lo, hi sqltypes.Value) bool {
	if !lo.Null && sqltypes.Compare(v, lo) < 0 {
		return false
	}
	if !hi.Null && sqltypes.Compare(v, hi) > 0 {
		return false
	}
	return true
}

// keepCodeSet keeps rows whose code is in set.
func keepCodeSet(set *bits.Bitmap) keepFunc {
	return func(ids []int, codes []uint64) []int {
		out := ids[:0]
		for k, c := range codes {
			if set.Get(int(c)) {
				out = append(out, ids[k])
			}
		}
		return out
	}
}

// keepDecoded keeps rows whose decoded value satisfies holds.
func keepDecoded(r *colstore.ColumnReader, holds func(sqltypes.Value) bool) keepFunc {
	return func(ids []int, codes []uint64) []int {
		out := ids[:0]
		for k, c := range codes {
			if holds(r.DecodeCode(c)) {
				out = append(out, ids[k])
			}
		}
		return out
	}
}

// nextBatch materializes the next ≤900 qualifying rows and applies the
// residual predicate.
func (c *groupCursor) nextBatch() *vector.Batch {
	for {
		idxs := c.sel.nextIDs(vector.DefaultBatchSize, c.scratch.batch)
		n := len(idxs)
		if n == 0 {
			return nil
		}
		// Each vector is sized by its gather, so a coded string column never
		// allocates the per-row strings it does not use.
		b := &vector.Batch{Schema: c.scan.schema, Vecs: make([]*vector.Vector, len(c.readers))}
		st := c.scan.Stats
		for i, r := range c.readers {
			// Late materialization: dict-encoded segments emit codes sharing
			// the primary dictionary; strings decode only at the pipeline
			// edge. Segments whose local dictionary cannot be remapped into
			// the primary dictionary fall back to eager decoding.
			if r.CanEmitCodes() {
				b.Vecs[i] = &vector.Vector{Typ: sqltypes.String}
				r.GatherCodesInto(b.Vecs[i], idxs)
				atomic.AddInt64(&st.StringColsCoded, 1)
				mScanColsCoded.Inc()
			} else {
				b.Vecs[i] = vector.NewVector(r.Col.Typ, n)
				r.GatherInto(b.Vecs[i], idxs)
				if r.Meta.Enc == colstore.EncDict {
					atomic.AddInt64(&st.StringColsMaterialized, 1)
					mScanColsMaterialized.Inc()
				}
			}
		}
		b.SetRowCountNoReset(n)
		if c.scan.Residual != nil {
			expr.ApplyFilter(c.scan.Residual, b)
		}
		atomic.AddInt64(&st.RowsResidual, int64(n-b.Len()))
		if b.Len() == 0 {
			continue
		}
		atomic.AddInt64(&st.RowsOutput, int64(b.Len()))
		mScanRowsOutput.Add(int64(b.Len()))
		return b
	}
}

// --- Delta-store rows (row-mode side of the mixed scan) ---

// deltaBatch fills one batch from snapshot delta rows starting at *pos,
// applying pushdowns, bitmap filters, and the residual row-at-a-time.
func (s *Scan) deltaBatch(pos *int) *vector.Batch {
	rows := s.Snap.Delta
	picked := make([]sqltypes.Row, 0, vector.DefaultBatchSize)
	start := *pos
	for *pos < len(rows) && len(picked) < vector.DefaultBatchSize {
		row := rows[*pos]
		*pos++
		if s.deltaRowQualifies(row) {
			picked = append(picked, row)
		}
	}
	if examined := int64(*pos - start); examined > 0 {
		atomic.AddInt64(&s.Stats.DeltaRows, examined)
		mScanDeltaRows.Add(examined)
	}
	if len(picked) == 0 {
		return nil
	}
	b := vector.NewBatch(s.schema, len(picked))
	b.SetNumRows(len(picked))
	for i, row := range picked {
		for c, col := range s.Cols {
			b.Vecs[c].SetValue(i, row[col])
		}
	}
	atomic.AddInt64(&s.Stats.DeltaRowsOutput, int64(len(picked)))
	atomic.AddInt64(&s.Stats.RowsOutput, int64(len(picked)))
	mScanRowsOutput.Add(int64(len(picked)))
	return b
}

func (s *Scan) deltaRowQualifies(row sqltypes.Row) bool {
	for _, p := range s.Pushdowns {
		v := row[p.Col]
		if v.Null || !inRange(v, p.Lo, p.Hi) {
			return false
		}
	}
	for _, dp := range s.DictPreds {
		v := row[dp.Col]
		if v.Null {
			return false
		}
		res := dp.Pred.Eval(sqltypes.Row{v})
		if res.Null || res.I == 0 {
			return false
		}
	}
	for _, bp := range s.Blooms {
		if bp.Target == nil || bp.Target.F == nil {
			continue
		}
		v := row[bp.Col]
		if v.Null || !bp.Target.F.MayContain(v) {
			return false
		}
	}
	if s.Residual != nil {
		// Residual is bound to output positions; build the projected row.
		proj := make(sqltypes.Row, len(s.Cols))
		for i, col := range s.Cols {
			proj[i] = row[col]
		}
		v := s.Residual.Eval(proj)
		if v.Null || v.I == 0 {
			return false
		}
	}
	return true
}

// --- Parallel gather exchange ---

// startParallel launches workers that process row groups independently and a
// final worker for delta rows, gathering batches into one channel (§5's
// exchange operator, gather form). Workers run under a context derived from
// the query context: cancellation, Close, and the first worker error all
// shut the exchange down. Worker panics are contained and converted to
// QueryErrors carrying the row-group id.
func (s *Scan) startParallel(ctx context.Context) {
	nw := s.Parallel
	// Two buffered batches per worker: enough slack that scan workers keep
	// decoding while downstream exchange workers (parallel aggregation or
	// join splitters) drain the gather concurrently.
	s.ch = make(chan *vector.Batch, 2*nw)
	wctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	groups := s.Snap.Groups
	var next int64 = -1

	s.wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func(worker int) {
			defer s.wg.Done()
			gid := qerr.NoGroup // row group under processing, for panic reports
			defer func() {
				if e := qerr.FromPanic("scan", gid, recover()); e != nil {
					s.fail(e)
				}
			}()
			sc := scratchPool.Get().(*scanScratch)
			defer scratchPool.Put(sc)
			for {
				if wctx.Err() != nil {
					return
				}
				gi := int(atomic.AddInt64(&next, 1))
				if gi >= len(groups) {
					break
				}
				g := groups[gi]
				gid = g.ID
				cur, err := s.openGroup(g, sc)
				if err != nil {
					s.fail(qerr.WithGroup("scan", g.ID, err))
					return
				}
				if cur == nil {
					continue
				}
				for b := cur.nextBatch(); b != nil; b = cur.nextBatch() {
					select {
					case s.ch <- b:
					case <-wctx.Done():
						return
					}
				}
			}
			gid = qerr.NoGroup
			// Worker 0 also handles delta rows after groups are claimed.
			if worker == 0 {
				pos := 0
				for pos < len(s.Snap.Delta) {
					if wctx.Err() != nil {
						return
					}
					b := s.deltaBatch(&pos)
					if b == nil {
						continue
					}
					select {
					case s.ch <- b:
					case <-wctx.Done():
						return
					}
				}
			}
		}(w)
	}
	go func() {
		s.wg.Wait()
		cancel() // release the derived context if workers finished naturally
		close(s.ch)
	}()
}

// fail records the first worker error and cancels sibling workers, so an
// error in one row group stops the whole exchange instead of letting the
// survivors keep streaming batches until the consumer drains them.
func (s *Scan) fail(err error) {
	s.errOnce.Do(func() {
		s.err = err
		s.cancel()
	})
}

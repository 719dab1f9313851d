package batchexec

import (
	"context"
	"fmt"
	"math/bits"

	"apollo/internal/bloom"
	"apollo/internal/exec"
	"apollo/internal/expr"
	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/vector"
)

// BloomTarget is the handle through which a hash-join build publishes its
// bitmap (Bloom) filter to a downstream scan. The planner creates one target,
// hands it to both the join (producer) and the probe-side scan (consumer);
// because the build completes before the probe opens, the scan always sees
// either nil (no filtering) or the finished filter.
type BloomTarget struct {
	F *bloom.Filter
}

// HashJoin is the batch-mode hash join supporting the full repertoire of §5:
// inner, left/right/full outer, left semi, and left anti. Join keys are
// column indexes on each side (the planner projects expression keys into
// columns first). Output layout: probe columns ++ build columns, except
// semi/anti which emit probe columns only.
//
// When a memory Tracker is set and the build side exceeds its grant, the join
// switches to a grace hash join: both sides are hash-partitioned to spill
// files and partitions are joined one at a time.
type HashJoin struct {
	Probe, Build Operator
	ProbeKeys    []int
	BuildKeys    []int
	Type         exec.JoinType
	Residual     expr.Expr // over probe++build layout; may be nil

	// BloomOut, when non-nil, receives a filter over the first build key
	// after the build phase (single-key joins only).
	BloomOut *BloomTarget

	// Tracker and SpillStore enable spilling; nil Tracker = unlimited grant.
	Tracker    *Tracker
	SpillStore *storage.Store

	// Parallel > 1 runs the probe phase as a partitioned exchange: the build
	// side is hash-partitioned into Parallel private cores and probe batches
	// are routed to the owning partition (exchange.go). ProbeExchange and
	// ProbePipes optionally carry planner-replicated per-worker probe stages;
	// when nil the workers share Probe directly. A build-side memory overflow
	// falls back to the serial grace-hash path regardless of Parallel.
	Parallel      int
	ProbeExchange *SharedSource
	ProbePipes    []Operator

	schema  *sqltypes.Schema
	ctx     context.Context
	core    *joinCore
	par     *parallelJoin
	hasher  keyHasher // partitions build rows, and probe rows when spilling
	pending []*vector.Batch
	state   int // 0 probing, 1 unmatched-build, 2 done

	// Spill mode.
	spilled       bool
	partBuild     []*spillPartition
	partProbe     []*spillPartition
	partIdx       int
	replay        []*vector.Batch // the current partition's unprobed batches
	reservedBytes int64
}

// NewHashJoin constructs a batch hash join.
func NewHashJoin(probe, build Operator, probeKeys, buildKeys []int, jt exec.JoinType, residual expr.Expr) (*HashJoin, error) {
	if len(probeKeys) != len(buildKeys) || len(probeKeys) == 0 {
		return nil, fmt.Errorf("batchexec: join needs matching non-empty key lists")
	}
	h := &HashJoin{Probe: probe, Build: build, ProbeKeys: probeKeys, BuildKeys: buildKeys, Type: jt, Residual: residual}
	switch jt {
	case exec.LeftSemi, exec.LeftAnti:
		h.schema = probe.Schema()
	default:
		h.schema = probe.Schema().Concat(build.Schema())
	}
	return h, nil
}

// Schema implements Operator.
func (h *HashJoin) Schema() *sqltypes.Schema { return h.schema }

// Open implements Operator: drains the build side, publishes the bitmap
// filter, then opens the probe side.
func (h *HashJoin) Open(ctx context.Context) error {
	h.ctx = ctx
	h.pending = nil
	h.state = 0
	h.spilled = false
	h.partIdx = -1

	build, overflow, err := h.drainBuild(ctx)
	if err != nil {
		return err
	}

	if overflow {
		if err := h.enterSpillMode(ctx, build); err != nil {
			return err
		}
		return nil // probe drained inside enterSpillMode
	}

	h.publishBloom(build)
	if h.Parallel > 1 {
		return h.startParallel(ctx, build)
	}
	h.core = newJoinCore(h, build)
	return h.Probe.Open(ctx)
}

// buildSide is the drained build input as concatenated column vectors.
// String columns keep their dict-coded form when every build batch shared the
// column's dictionary; otherwise the column is transparently materialized.
type buildSide struct {
	cols []*vector.Vector
	len  int
}

// appendBuildVec appends src rows [0, n) onto dst, preserving the coded form
// when both sides share a dictionary and materializing dst otherwise.
func appendBuildVec(dst, src *vector.Vector, n int) {
	off := dst.Len()
	if off == 0 && src.IsCoded() && !dst.IsCoded() {
		dst.MakeCoded(src.Dict, src.DictVals, 0)
	}
	if dst.IsCoded() && src.IsCoded() && dst.Dict == src.Dict {
		if len(src.DictVals) > len(dst.DictVals) {
			dst.DictVals = src.DictVals
		}
		dst.Codes = append(dst.Codes, src.Codes[:n]...)
	} else {
		dst.Materialize() // no-op unless coded: representation mismatch
		switch {
		case dst.Typ == sqltypes.Float64:
			dst.F64 = append(dst.F64, src.F64[:n]...)
		case dst.Typ == sqltypes.String:
			for i := 0; i < n; i++ {
				s := ""
				if !src.IsNull(i) {
					s = src.StrAt(i)
				}
				dst.Str = append(dst.Str, s)
			}
		default:
			dst.I64 = append(dst.I64, src.I64[:n]...)
		}
	}
	if src.Nulls != nil && src.Nulls.Any() {
		for i := 0; i < n; i++ {
			if src.Nulls.Get(i) {
				dst.SetNull(off + i)
			}
		}
	}
}

// htEntryBytes approximates the per-row overhead of the join core (packed
// key, candidate-table entry and slot, matched flag) for the build grant.
const htEntryBytes = 48

// batchBytes estimates a compacted batch's in-memory footprint for grant
// accounting; coded columns cost 8 bytes per row regardless of string length.
func batchBytes(b *vector.Batch) int64 {
	n := int64(b.NumRows())
	total := int64(48) + 24*n
	for _, v := range b.Vecs {
		switch {
		case v.IsCoded():
			total += 8 * n
		case v.Typ == sqltypes.String:
			total += 16 * n
			for _, s := range v.Str {
				total += int64(len(s))
			}
		default:
			total += 8 * n
		}
	}
	return total
}

// drainBuild consumes the build input into concatenated build columns,
// keeping dict-coded string columns coded. overflow=true means the memory
// grant was exceeded (all rows are still collected; the caller partitions
// them to spill files).
func (h *HashJoin) drainBuild(ctx context.Context) (*buildSide, bool, error) {
	if err := h.Build.Open(ctx); err != nil {
		return nil, false, err
	}
	defer h.Build.Close()
	bs := h.Build.Schema()
	build := &buildSide{cols: make([]*vector.Vector, bs.Len())}
	for ci, col := range bs.Cols {
		build.cols[ci] = vector.NewVector(col.Typ, 0)
	}
	overflow := false
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		b, err := h.Build.Next()
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			return build, overflow, nil
		}
		b.Compact()
		n := b.NumRows()
		if n == 0 {
			continue
		}
		// The grant covers the retained columns plus the join core about
		// to be built over them.
		sz := batchBytes(b) + htEntryBytes*int64(n)
		if !overflow && !h.Tracker.TryReserve(sz) {
			overflow = h.SpillStore != nil
			if overflow {
				h.Tracker.NoteSpill()
			}
		}
		if !overflow {
			h.reservedBytes += sz
		}
		for ci := range build.cols {
			appendBuildVec(build.cols[ci], b.Vecs[ci], n)
		}
		build.len += n
	}
}

// publishBloom hands the probe-side scan a filter over the build key: an
// exact range bitmap when integer-family keys are dense enough, a Bloom
// filter otherwise (bloom.NewInts makes that choice).
func (h *HashJoin) publishBloom(build *buildSide) {
	if h.BloomOut == nil || len(h.BuildKeys) != 1 {
		return
	}
	kv := build.cols[h.BuildKeys[0]]
	var f *bloom.Filter
	switch kv.Typ {
	case sqltypes.Int64, sqltypes.Date, sqltypes.Bool:
		f = bloom.NewInts(kv.I64[:build.len], kv.Nulls)
	default:
		f = bloom.New(build.len, bloom.DefaultBitsPerKey)
		for i := 0; i < build.len; i++ {
			if !kv.IsNull(i) {
				f.Add(kv.Value(i))
			}
		}
	}
	if _, exact := f.Exact(); exact {
		mBitmapFiltersExact.Inc()
	} else {
		mBitmapFiltersBloom.Inc()
	}
	h.BloomOut.F = f
}

// Close implements Operator.
func (h *HashJoin) Close() error {
	h.Tracker.Release(h.reservedBytes)
	h.reservedBytes = 0
	h.core = nil
	for _, p := range h.partBuild {
		if p != nil {
			p.drop()
		}
	}
	for _, p := range h.partProbe {
		if p != nil {
			p.drop()
		}
	}
	h.partBuild, h.partProbe, h.replay = nil, nil, nil
	if h.par != nil {
		h.par.shutdown()
		h.par = nil
		if h.ProbeExchange != nil {
			return h.ProbeExchange.Base().Close()
		}
		return h.Probe.Close()
	}
	if !h.spilled {
		return h.Probe.Close()
	}
	return nil
}

// Next implements Operator.
func (h *HashJoin) Next() (*vector.Batch, error) {
	for {
		if h.par != nil {
			return h.nextParallel()
		}
		if len(h.pending) > 0 {
			b := h.pending[0]
			h.pending = h.pending[1:]
			return b, nil
		}
		if h.spilled {
			b, err := h.nextSpilled()
			if err != nil || b != nil {
				return b, err
			}
			return nil, nil
		}
		switch h.state {
		case 0:
			b, err := h.Probe.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				h.state = 1
				continue
			}
			h.pending = h.core.probeBatch(b)
		case 1:
			h.state = 2
			h.pending = h.core.unmatchedBuild()
		default:
			return nil, nil
		}
	}
}

// --- In-memory join core ---

// denseSlotsPerRow bounds how sparse a dense candidate table may be: its
// start array costs 4 bytes a slot, a map some 40 bytes an entry, so a
// build with few keys spread over a wide span keys a map instead.
const denseSlotsPerRow = 8

// joinCore joins a fixed build side against streamed probe batches. The build
// side lives as concatenated column vectors (dict-coded string columns stay
// coded), so join output is assembled with typed gather loops — coded columns
// gather codes, never strings.
//
// The build rows sit in one candidate table: slot s holds build rows
// rows[start[s]:start[s+1]], in build order. A row finds its slot through its
// packed key (keys.go): the key is the slot while the table is dense, and
// slotOf maps it beyond. A key with a NULL or with a value the build lacks
// has no slot. A float key column, or key widths past packedKeyBits, leave
// cols nil and key the slots by exec.EncodeKey bytes in htGen instead.
type joinCore struct {
	h       *HashJoin
	build   *buildSide
	matched []bool

	start, rows []int32
	cols        []keyCol
	shift       []uint
	dense       bool
	slotOf      map[uint64]uint64
	nMapped     uint64 // slots slotOf handed out
	htGen       map[string]uint64

	// Scratch: each row's packed key, then its slot (noID for none).
	keys, ids []uint64
	keyVals   sqltypes.Row
	keyBuf    []byte
}

func newJoinCore(h *HashJoin, build *buildSide) *joinCore {
	n := build.len
	c := &joinCore{h: h, build: build, matched: make([]bool, n),
		cols: make([]keyCol, len(h.BuildKeys)), shift: make([]uint, len(h.BuildKeys))}
	var nSlots int
	if c.packKeys(build.cols, h.BuildKeys, n, true) {
		nSlots = c.toSlots(n, true)
	} else {
		c.cols, c.htGen = nil, make(map[string]uint64)
		nSlots = c.encodedSlots(build.cols, h.BuildKeys, n, true)
	}
	// Counting sort of the build rows by slot: count, sum, place (which
	// moves every start one slot on), and move the starts back.
	c.start = make([]int32, nSlots+1)
	for _, s := range c.keys[:n] {
		if s < uint64(nSlots) {
			c.start[s+1]++
		}
	}
	for s := 1; s <= nSlots; s++ {
		c.start[s] += c.start[s-1]
	}
	c.rows = make([]int32, c.start[nSlots])
	for i, s := range c.keys[:n] {
		if s < uint64(nSlots) {
			c.rows[c.start[s]] = int32(i)
			c.start[s]++
		}
	}
	copy(c.start[1:], c.start[:nSlots])
	c.start[0] = 0
	return c
}

// packKeys packs rows [0, n) of the key columns keys of vecs into c.keys,
// one column at a time; a key with a NULL or an unknown value gets bit 63.
// The build (build set) hands out ids and fixes each column's width once
// the column is filled, the build side being drained; an integer column
// whose values span at most 2^denseKeyBits takes span ids. It reports false
// for a float key column (on either side) or widths past packedKeyBits.
func (c *joinCore) packKeys(vecs []*vector.Vector, keys []int, n int, build bool) bool {
	h := c.h
	c.keys = scratch(c.keys, n)
	var total uint
	for j, k := range keys {
		v := vecs[k]
		kc := &c.cols[j]
		if build {
			if v.Typ == sqltypes.Float64 || h.Probe.Schema().Cols[h.ProbeKeys[j]].Typ == sqltypes.Float64 {
				return false
			}
			if *kc = (keyCol{}); v.Typ == sqltypes.String || !kc.setSpan(v, n) {
				*kc = newKeyCol(v.Typ)
			}
		}
		ids := c.keys // the first column's ids pack in place
		if j > 0 {
			c.ids = scratch(c.ids, n)
			ids = c.ids
		}
		kc.fill(v, ids, build)
		if build {
			c.shift[j] = total
			if total += uint(bits.Len64(kc.n)); total > packedKeyBits {
				return false
			}
		}
		pack(c.keys, ids, c.shift[j], true)
	}
	return true
}

// toSlots returns the slot count, and turns the packed keys in c.keys[:n]
// into slots in place unless the table is dense. The build (build set)
// picks the table: the keys themselves are the slots while the widths sum
// to at most denseKeyBits and the build has a row for every
// denseSlotsPerRow slots, and slotOf hands out slots 1, 2, ... otherwise.
func (c *joinCore) toSlots(n int, build bool) int {
	if build {
		var total uint
		for _, kc := range c.cols {
			total += uint(bits.Len64(kc.n))
		}
		if c.dense = total <= denseKeyBits && 1<<total <= max(denseSlotsPerRow*n, 64); c.dense {
			return 1 << total
		}
		c.slotOf = make(map[uint64]uint64)
	}
	for i, k := range c.keys[:n] {
		if c.keys[i] = noID; k>>63 == 0 {
			c.keys[i] = idOf(c.slotOf, k, &c.nMapped, build)
		}
	}
	return int(c.nMapped) + 1
}

// encodedSlots writes the slot of each row [0, n) of the key columns keys
// of vecs to c.keys, keyed by exec.EncodeKey bytes in htGen, and returns
// the slot count.
func (c *joinCore) encodedSlots(vecs []*vector.Vector, keys []int, n int, assign bool) int {
	c.keys = scratch(c.keys, n)
	c.keyVals = scratch(c.keyVals, len(keys))
	for i := range c.keys {
		c.keys[i] = noID
		null := false
		for j, k := range keys {
			c.keyVals[j] = vecs[k].Value(i)
			null = null || c.keyVals[j].Null
		}
		if null {
			continue
		}
		c.keyBuf = exec.EncodeKey(c.keyBuf[:0], c.keyVals)
		s, ok := c.htGen[string(c.keyBuf)]
		if !ok && assign {
			s, ok = uint64(len(c.htGen)), true
			c.htGen[string(c.keyBuf)] = s
		}
		if ok {
			c.keys[i] = s
		}
	}
	return len(c.htGen)
}

// probeSlots returns the slot of every row of the compacted batch b (noID
// or past the table for a row without build candidates). Probe values get
// no ids: one the build lacks is noID, and a coded column resolves each
// code of its dictionary at most once.
func (c *joinCore) probeSlots(b *vector.Batch, n int) []uint64 {
	if c.cols == nil {
		mJoinBatchesEncoded.Inc()
		c.encodedSlots(b.Vecs, c.h.ProbeKeys, n, false)
	} else {
		mJoinBatchesPacked.Inc()
		if c.packKeys(b.Vecs, c.h.ProbeKeys, n, false); !c.dense {
			c.toSlots(n, false)
		}
	}
	return c.keys[:n]
}

// probeBatch joins one probe batch, returning zero or more output batches.
func (c *joinCore) probeBatch(b *vector.Batch) []*vector.Batch {
	h := c.h
	b.Compact()
	n := b.NumRows()
	if n == 0 {
		return nil
	}

	probeWidth := h.Probe.Schema().Len()
	var joined sqltypes.Row
	if h.Residual != nil {
		joined = make(sqltypes.Row, probeWidth+h.Build.Schema().Len())
	}
	slots := c.probeSlots(b, n)
	nSlots := uint64(len(c.start) - 1)

	// Semi/anti joins keep probe rows (sel); inner/outer joins collect
	// matching (probe, build) pairs, then gather them into output batches
	// column by column.
	semi := h.Type == exec.LeftSemi || h.Type == exec.LeftAnti
	leftOuter := h.Type == exec.LeftOuter || h.Type == exec.FullOuter
	var sel []int
	var probeIdx, buildIdx []int32 // buildIdx -1 = null-extended
	if semi {
		sel = make([]int, 0, n)
	} else if t := h.BloomOut; t != nil && t.F != nil {
		if _, exact := t.F.Exact(); exact {
			// The exact filter let through only rows whose key is a build
			// key: every probe row makes at least one pair.
			probeIdx, buildIdx = make([]int32, 0, n), make([]int32, 0, n)
		}
	}
	for i, s := range slots {
		var cands []int32
		if s < nSlots {
			cands = c.rows[c.start[s]:c.start[s+1]]
		}
		matched := false
		for _, bi := range cands {
			if h.Residual != nil && !c.residualOK(b, i, bi, joined, probeWidth) {
				continue
			}
			matched = true
			if semi {
				break
			}
			c.matched[bi] = true
			probeIdx = append(probeIdx, int32(i))
			buildIdx = append(buildIdx, bi)
		}
		switch {
		case semi:
			if matched == (h.Type == exec.LeftSemi) {
				sel = append(sel, i)
			}
		case !matched && leftOuter:
			probeIdx = append(probeIdx, int32(i))
			buildIdx = append(buildIdx, -1)
		}
	}
	if semi {
		if len(sel) == 0 {
			return nil
		}
		b.Sel = sel
		return []*vector.Batch{b}
	}

	var outs []*vector.Batch
	for start := 0; start < len(probeIdx); start += vector.DefaultBatchSize {
		end := start + vector.DefaultBatchSize
		if end > len(probeIdx) {
			end = len(probeIdx)
		}
		outs = append(outs, c.gather(b, probeIdx[start:end], buildIdx[start:end], probeWidth))
	}
	return outs
}

// gather assembles one output batch from (probe, build) index pairs using
// typed per-column loops.
func (c *joinCore) gather(b *vector.Batch, probeIdx, buildIdx []int32, probeWidth int) *vector.Batch {
	h := c.h
	m := len(probeIdx)
	out := vector.NewBatch(h.schema, m)
	out.SetNumRows(m)
	for ci := 0; ci < probeWidth; ci++ {
		gatherVec(out.Vecs[ci], b.Vecs[ci], probeIdx)
	}
	for ci, src := range c.build.cols {
		dst := out.Vecs[probeWidth+ci]
		gatherVec(dst, src, buildIdx)
		for i, bi := range buildIdx {
			if bi < 0 {
				dst.SetNull(i)
			}
		}
	}
	return out
}

// gatherVec copies src rows at idxs into dst (negative indexes are left for
// the caller to null out). A dict-coded src stays coded: the gather moves
// 8-byte codes, not strings.
func gatherVec(dst, src *vector.Vector, idxs []int32) {
	if src.IsCoded() {
		dst.MakeCoded(src.Dict, src.DictVals, len(idxs))
		d := dst.Codes[:len(idxs)]
		for i, j := range idxs {
			if j >= 0 {
				d[i] = src.Codes[j]
			} else {
				d[i] = 0 // null-extended; caller nulls the row
			}
		}
	} else {
		dst.ClearCoded()
		switch dst.Typ {
		case sqltypes.Float64:
			d := dst.F64[:len(idxs)]
			for i, j := range idxs {
				if j >= 0 {
					d[i] = src.F64[j]
				}
			}
		case sqltypes.String:
			d := dst.Str[:len(idxs)]
			for i, j := range idxs {
				if j >= 0 {
					d[i] = src.Str[j]
				}
			}
		default:
			d := dst.I64[:len(idxs)]
			for i, j := range idxs {
				if j >= 0 {
					d[i] = src.I64[j]
				}
			}
		}
	}
	if src.Nulls != nil {
		for i, j := range idxs {
			if j >= 0 && src.Nulls.Get(int(j)) {
				dst.SetNull(i)
			}
		}
	}
}

// residualOK evaluates the join's residual over probe row probeIdx and
// build row bi, laid out in joined.
func (c *joinCore) residualOK(b *vector.Batch, probeIdx int, bi int32, joined sqltypes.Row, probeWidth int) bool {
	for ci := 0; ci < probeWidth; ci++ {
		joined[ci] = b.Vecs[ci].Value(probeIdx)
	}
	for ci, v := range c.build.cols {
		joined[probeWidth+ci] = v.Value(int(bi))
	}
	v := c.h.Residual.Eval(joined)
	return !v.Null && v.I != 0
}

// unmatchedBuild emits null-extended build rows for right/full outer joins.
func (c *joinCore) unmatchedBuild() []*vector.Batch {
	h := c.h
	if h.Type != exec.RightOuter && h.Type != exec.FullOuter {
		return nil
	}
	probeWidth := h.Probe.Schema().Len()
	var outs []*vector.Batch
	out := vector.NewBatch(h.schema, vector.DefaultBatchSize)
	outRows := 0
	for bi, m := range c.matched {
		if m {
			continue
		}
		if outRows == 0 {
			out.SetNumRows(vector.DefaultBatchSize)
		}
		for ci := 0; ci < probeWidth; ci++ {
			out.Vecs[ci].SetNull(outRows)
		}
		for ci, src := range c.build.cols {
			out.Vecs[probeWidth+ci].CopyRow(outRows, src, bi)
		}
		outRows++
		if outRows == vector.DefaultBatchSize {
			out.SetRowCountNoReset(outRows)
			outs = append(outs, out)
			out = vector.NewBatch(h.schema, vector.DefaultBatchSize)
			outRows = 0
		}
	}
	if outRows > 0 {
		out.SetRowCountNoReset(outRows)
		outs = append(outs, out)
	}
	return outs
}

// --- Grace (spilling) mode ---

const spillPartitions = 8

// enterSpillMode partitions build rows and the entire probe input to spill
// files, then joins partition pairs one at a time. Dict-coded columns spill
// as codes (spillPartition's tagged encoding); partition assignment hashes
// key values (keyHasher), so both sides partition alike whatever the
// representation.
func (h *HashJoin) enterSpillMode(ctx context.Context, build *buildSide) error {
	h.spilled = true
	h.Tracker.Release(h.reservedBytes)
	h.reservedBytes = 0

	h.partBuild = make([]*spillPartition, spillPartitions)
	h.partProbe = make([]*spillPartition, spillPartitions)
	for i := range h.partBuild {
		h.partBuild[i] = newSpillPartition(h.SpillStore, h.Build.Schema())
		h.partProbe[i] = newSpillPartition(h.SpillStore, h.Probe.Schema())
	}

	bb := batchWithRows(h.Build.Schema(), build.cols, build.len)
	for i, hv := range h.hasher.hash(build.cols, h.BuildKeys, build.len) {
		if err := h.partBuild[partOf(hv, spillPartitions)].addBatchRow(bb, i); err != nil {
			return err
		}
	}
	h.publishBloom(build)

	if err := h.Probe.Open(ctx); err != nil {
		return err
	}
	defer h.Probe.Close()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, err := h.Probe.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		b.Compact()
		for i, hv := range h.hasher.hash(b.Vecs, h.ProbeKeys, b.NumRows()) {
			if err := h.partProbe[partOf(hv, spillPartitions)].addBatchRow(b, i); err != nil {
				return err
			}
		}
	}
	h.partIdx = -1
	return nil
}

// nextSpilled advances through partition pairs: each pair's build batch
// becomes a private core, which its probe batches probe one per call.
func (h *HashJoin) nextSpilled() (*vector.Batch, error) {
	for {
		if err := h.ctx.Err(); err != nil {
			return nil, err
		}
		switch {
		case len(h.replay) > 0:
			h.pending = h.core.probeBatch(h.replay[0])
			h.replay = h.replay[1:]
		case h.core != nil:
			// Partition probe exhausted: unmatched build rows, then advance.
			h.pending = h.core.unmatchedBuild()
			h.core = nil
		default:
			h.partIdx++
			if h.partIdx >= spillPartitions {
				return nil, nil
			}
			build, err := h.partBuild[h.partIdx].readAll(0)
			if err != nil {
				return nil, err
			}
			if h.replay, err = h.partProbe[h.partIdx].readAll(vector.DefaultBatchSize); err != nil {
				return nil, err
			}
			h.core = newJoinCore(h, &buildSide{cols: build[0].Vecs, len: build[0].NumRows()})
		}
		if len(h.pending) > 0 {
			out := h.pending[0]
			h.pending = h.pending[1:]
			return out, nil
		}
	}
}

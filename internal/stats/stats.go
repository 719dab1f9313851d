// Package stats derives optimizer statistics from columnstore metadata — the
// query-optimization enhancement of §6: segment directories already record
// per-segment min/max/null counts, so table statistics come almost for free,
// and bookmark-based sampling (§4.4) supplies equi-depth histograms and
// HyperLogLog distinct-count sketches.
package stats

import (
	"math"
	"math/rand"
	"sort"

	"apollo/internal/sqltypes"
	"apollo/internal/table"
)

// ColStats summarizes one column.
type ColStats struct {
	Min, Max  sqltypes.Value
	NullCount int
	// DistinctEst is the estimated number of distinct non-null values:
	// dictionary sizes for string columns, otherwise a sample-based
	// HyperLogLog count scaled to the table with a first-order jackknife.
	DistinctEst int
	// Hist is an equi-depth histogram over the bookmark sample; nil when the
	// table was empty or sampling produced no non-null values.
	Hist *Histogram
	// Sketch is the HyperLogLog sketch the distinct estimate came from (nil
	// for dictionary-backed estimates).
	Sketch *HLL
}

// TableStats summarizes a table at collection time.
type TableStats struct {
	Rows int
	Cols []ColStats
	// Version is the table's publish epoch (table.StatsVersion) when the
	// statistics were collected; the StatsCache recollects when it moves.
	Version uint64
	// SampledRows is the bookmark-sample size the histograms and sketches
	// were built from (0 = metadata only).
	SampledRows int
}

// CollectOptions tunes statistics collection. Zero values select defaults.
type CollectOptions struct {
	SampleSize int   // bookmark sample size (default 2048)
	Buckets    int   // histogram buckets per column (default 32)
	Seed       int64 // sampling seed; fixed default keeps plans deterministic
}

const (
	defaultSampleSize = 2048
	defaultBuckets    = 32
)

// Collect derives statistics with default options.
func Collect(t *table.Table) *TableStats { return CollectWith(t, CollectOptions{}) }

// CollectWith derives statistics from segment metadata (row counts, min/max,
// null counts), a pass over delta rows (few by construction), and one shared
// bookmark sample that feeds per-column histograms and HLL sketches.
func CollectWith(t *table.Table, o CollectOptions) *TableStats {
	if o.SampleSize <= 0 {
		o.SampleSize = defaultSampleSize
	}
	if o.Buckets <= 0 {
		o.Buckets = defaultBuckets
	}
	if o.Seed == 0 {
		o.Seed = 1
	}

	version := t.StatsVersion()
	snap := t.Snapshot()
	ncols := snap.Schema.Len()
	ts := &TableStats{Cols: make([]ColStats, ncols), Version: version}
	for i := range ts.Cols {
		ts.Cols[i].Min = sqltypes.NewNull(snap.Schema.Cols[i].Typ)
		ts.Cols[i].Max = sqltypes.NewNull(snap.Schema.Cols[i].Typ)
	}
	merge := func(c int, v sqltypes.Value) {
		if v.Null {
			ts.Cols[c].NullCount++
			return
		}
		if ts.Cols[c].Min.Null || sqltypes.Compare(v, ts.Cols[c].Min) < 0 {
			ts.Cols[c].Min = v
		}
		if ts.Cols[c].Max.Null || sqltypes.Compare(v, ts.Cols[c].Max) > 0 {
			ts.Cols[c].Max = v
		}
	}

	for _, g := range snap.Groups {
		live := g.Rows
		if bm := snap.Deletes[g.ID]; bm != nil {
			live -= bm.Count()
		}
		ts.Rows += live
		for c := range ts.Cols {
			seg := &g.Segs[c]
			ts.Cols[c].NullCount += seg.NullCount
			if !seg.Min.Null {
				merge(c, seg.Min)
			}
			if !seg.Max.Null {
				merge(c, seg.Max)
			}
		}
	}
	for _, row := range snap.Delta {
		ts.Rows++
		for c, v := range row {
			merge(c, v)
		}
	}
	if ts.Rows == 0 {
		for c := range ts.Cols {
			ts.Cols[c].DistinctEst = 1
		}
		return ts
	}

	// One bookmark sample shared by every column's histogram and sketch.
	sample := t.Sample(min(o.SampleSize, ts.Rows), rand.New(rand.NewSource(o.Seed)))
	ts.SampledRows = len(sample)

	for c := range ts.Cols {
		cs := &ts.Cols[c]
		col := snap.Schema.Cols[c]

		// Histogram + sketch from the sample.
		vals := make([]sqltypes.Value, 0, len(sample))
		sketch := &HLL{}
		seen := make(map[uint64]int, len(sample))
		for _, r := range sample {
			v := r[c]
			if v.Null {
				continue
			}
			vals = append(vals, v)
			hh := valueHash(v)
			sketch.AddHash(hh)
			seen[hh]++
		}
		if len(vals) > 0 {
			sort.Slice(vals, func(a, b int) bool { return sqltypes.Compare(vals[a], vals[b]) < 0 })
			cs.Hist = histogramFromSorted(vals, o.Buckets)
			cs.Sketch = sketch
		}

		// Distinct estimate: dictionaries are exact for published strings;
		// otherwise scale the sample sketch up to the table.
		nonNull := max(ts.Rows-cs.NullCount, 0)
		switch {
		case len(vals) == 0:
			cs.DistinctEst = 1
		default:
			// The occurrence map gives the exact distinct count of the
			// sample; the sketch is kept on ColStats for merging.
			cs.DistinctEst = scaleDistinct(float64(len(seen)), seen, len(vals), nonNull)
		}
		// The primary dictionary is an exact lower bound for published
		// strings (delta rows may add values it has not seen).
		if col.Typ == sqltypes.String && t.Index().Primary(c) != nil {
			cs.DistinctEst = max(cs.DistinctEst, min(t.Index().Primary(c).Len(), nonNull))
		}
		// Integer columns cannot exceed their value span.
		if col.Typ != sqltypes.String && col.Typ != sqltypes.Float64 && !cs.Min.Null {
			if span := cs.Max.I - cs.Min.I + 1; span >= 1 && span < int64(cs.DistinctEst) {
				cs.DistinctEst = int(span)
			}
		}
		if cs.DistinctEst > nonNull && nonNull > 0 {
			cs.DistinctEst = nonNull
		}
		if cs.DistinctEst < 1 {
			cs.DistinctEst = 1
		}
	}
	return ts
}

// scaleDistinct scales a sample distinct count d (from the sketch) up to a
// population of size total using the unsmoothed first-order jackknife
// (Haas et al.): D = d / (1 - (1-q)·f1/n), where f1 is the number of values
// seen exactly once in the sample and q the sampling fraction. If every
// sampled value repeats, the sample has likely seen all distinct values
// (D = d); if every value is unique, D scales linearly with the population.
func scaleDistinct(d float64, seen map[uint64]int, n, total int) int {
	if n <= 0 || total <= 0 {
		return 1
	}
	if n >= total {
		return clampI(int(math.Round(d)), 1, total)
	}
	f1 := 0
	for _, c := range seen {
		if c == 1 {
			f1++
		}
	}
	q := float64(n) / float64(total)
	denom := 1 - (1-q)*float64(f1)/float64(n)
	if denom < 1e-9 {
		denom = 1e-9
	}
	est := d / denom
	return clampI(int(math.Round(est)), clampI(int(math.Round(d)), 1, total), total)
}

// RangeSelectivity estimates the fraction of rows with column col in
// [lo, hi] (NULL bounds unbounded) assuming a uniform distribution between
// the column's min and max. Histogram-aware estimation lives in
// EqSelectivity / RangeSelectivityOpen; this stays the coarse fallback.
func (ts *TableStats) RangeSelectivity(col int, lo, hi sqltypes.Value) float64 {
	cs := ts.Cols[col]
	if ts.Rows == 0 || cs.Min.Null {
		return 0
	}
	mn, mx := cs.Min.AsFloat(), cs.Max.AsFloat()
	if cs.Min.Typ == sqltypes.String {
		// No numeric domain: equality selects 1/distinct, ranges are guessed.
		if !lo.Null && !hi.Null && sqltypes.Compare(lo, hi) == 0 {
			return 1 / float64(max(cs.DistinctEst, 1))
		}
		return 0.3
	}
	span := mx - mn
	if span <= 0 {
		// Single-valued column: either the range covers it or not.
		v := cs.Min
		if (!lo.Null && sqltypes.Compare(v, lo) < 0) || (!hi.Null && sqltypes.Compare(v, hi) > 0) {
			return 0
		}
		return 1
	}
	l, h := mn, mx
	if !lo.Null {
		l = math.Max(l, lo.AsFloat())
	}
	if !hi.Null {
		h = math.Min(h, hi.AsFloat())
	}
	if h < l {
		return 0
	}
	sel := (h - l) / span
	// Equality on integers: at least 1/distinct.
	if !lo.Null && !hi.Null && sqltypes.Compare(lo, hi) == 0 {
		sel = 1 / float64(max(cs.DistinctEst, 1))
	}
	return clamp01(sel)
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

func clampI(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Histogram is an equi-depth histogram built from a bookmark sample (§4.4).
type Histogram struct {
	Bounds []sqltypes.Value // ascending upper bounds, one per bucket
	Lo     sqltypes.Value   // lowest sampled value (lower edge of bucket 0)
}

// histogramFromSorted builds an equi-depth histogram from an ascending value
// slice. Heavy values naturally occupy several consecutive buckets, which
// FracEQ exploits for skewed (zipf-like) columns.
func histogramFromSorted(vals []sqltypes.Value, buckets int) *Histogram {
	h := &Histogram{Lo: vals[0]}
	per := len(vals) / buckets
	if per < 1 {
		per = 1
	}
	for i := per - 1; i < len(vals); i += per {
		h.Bounds = append(h.Bounds, vals[i])
	}
	if len(h.Bounds) == 0 || sqltypes.Compare(h.Bounds[len(h.Bounds)-1], vals[len(vals)-1]) != 0 {
		h.Bounds = append(h.Bounds, vals[len(vals)-1])
	}
	return h
}

// FracLE estimates the fraction of non-null values <= v, interpolating
// linearly inside the bucket containing v for numeric domains.
func (h *Histogram) FracLE(v sqltypes.Value) float64 {
	k := len(h.Bounds)
	if k == 0 {
		return 0
	}
	if sqltypes.Compare(v, h.Bounds[k-1]) >= 0 {
		return 1
	}
	if !h.Lo.Null && sqltypes.Compare(v, h.Lo) < 0 {
		return 0
	}
	i := sort.Search(k, func(j int) bool {
		return sqltypes.Compare(h.Bounds[j], v) >= 0
	})
	// Buckets 0..i-1 lie fully at or below v; interpolate within bucket i.
	upper := h.Bounds[i]
	if sqltypes.Compare(upper, v) == 0 {
		return float64(i+1) / float64(k)
	}
	lower := h.Lo
	if i > 0 {
		lower = h.Bounds[i-1]
	}
	frac := 0.5
	if upper.Typ != sqltypes.String && !lower.Null {
		lo, hi := lower.AsFloat(), upper.AsFloat()
		if hi > lo {
			frac = clamp01((v.AsFloat() - lo) / (hi - lo))
		}
	}
	return (float64(i) + frac) / float64(k)
}

// FracEQ estimates the fraction of non-null values equal to v from bucket
// bounds alone. A value repeated across m >= 2 consecutive bounds is a heavy
// hitter spanning ~m buckets; otherwise the histogram carries no frequency
// information and FracEQ returns -1 so the caller falls back to 1/NDV.
func (h *Histogram) FracEQ(v sqltypes.Value) float64 {
	k := len(h.Bounds)
	if k == 0 {
		return -1
	}
	i0 := sort.Search(k, func(j int) bool { return sqltypes.Compare(h.Bounds[j], v) >= 0 })
	i1 := sort.Search(k, func(j int) bool { return sqltypes.Compare(h.Bounds[j], v) > 0 })
	if m := i1 - i0; m >= 2 {
		return (float64(m) - 0.5) / float64(k)
	}
	return -1
}

// EqDensity estimates the equality fraction for an integer-typed value from
// its bucket's local density: one bucket holds ~1/k of the rows spread
// across the integer span it covers. Under skew this beats the global 1/NDV
// fallback — tail buckets span many values (low per-value frequency) while
// heavy regions span few — and on uniform data the two agree. Returns -1
// when v falls outside the histogram.
func (h *Histogram) EqDensity(v sqltypes.Value) float64 {
	k := len(h.Bounds)
	if k == 0 {
		return -1
	}
	i := sort.Search(k, func(j int) bool { return sqltypes.Compare(h.Bounds[j], v) >= 0 })
	if i == k {
		return -1
	}
	var span int64
	if i == 0 {
		span = h.Bounds[0].I - h.Lo.I + 1
	} else {
		// Bucket i covers the half-open integer range (Bounds[i-1], Bounds[i]].
		span = h.Bounds[i].I - h.Bounds[i-1].I
	}
	if span < 1 {
		span = 1
	}
	return (1 / float64(k)) / float64(span)
}

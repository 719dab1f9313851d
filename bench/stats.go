package main

import (
	"math"
	"sort"
	"sync"
)

// samples collects per-operation latencies in milliseconds, each with the
// time the operation completed, in seconds since the timed phase began. Two
// client goroutines may add to one set.
type samples struct {
	mu   sync.Mutex
	at   []float64
	ms   []float64
	kind []int // which of the workload's statements the operation ran
}

func (s *samples) add(at, ms float64, kind int) {
	s.mu.Lock()
	s.at = append(s.at, at)
	s.ms = append(s.ms, ms)
	s.kind = append(s.kind, kind)
	s.mu.Unlock()
}

// typical is the class's central latency: the median latency of each kind of
// statement, averaged over the kinds. With one kind it is the plain median.
// A client that cycles a fixed set of statements of very different cost
// produces latencies in clusters, one per statement; the pooled median is
// then whichever cluster happens to hold the middle sample, jumps from one
// cluster to its neighbour between identical runs, and does not move at all
// when only the other statements get faster. Every statement's median counts
// here.
func (s *samples) typical() float64 {
	s.mu.Lock()
	byKind := map[int][]float64{}
	for i, k := range s.kind {
		byKind[k] = append(byKind[k], s.ms[i])
	}
	s.mu.Unlock()
	if len(byKind) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, ms := range byKind {
		sum += median(ms)
	}
	return sum / float64(len(byKind))
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ms)
}

// sorted returns a sorted copy of every latency.
func (s *samples) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.ms...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

// windows splits the first k*width seconds of the phase into k windows and
// returns the sorted latencies of the operations that completed in each.
func (s *samples) windows(k int, width float64) [][]float64 {
	out := make([][]float64, k)
	s.mu.Lock()
	for i, at := range s.at {
		if w := int(at / width); w < k {
			out[w] = append(out[w], s.ms[i])
		}
	}
	s.mu.Unlock()
	for _, w := range out {
		sort.Float64s(w)
	}
	return out
}

// rate is completions per second in the first `seconds` of the phase: the
// completions are cut, in order, into k stretches of equally many, each
// stretch's rate is its completions over the time it took, and the median
// stretch is reported. Cutting by count instead of by the clock keeps the
// value continuous (a count per fixed window moves in whole steps), and the
// median keeps one disturbed stretch out of it. With weighted set, a
// completion counts as many as its ms field says (rows, for rowsWritten).
func (s *samples) rate(k int, seconds float64, weighted bool) float64 {
	s.mu.Lock()
	type done struct{ at, w float64 }
	var all []done
	for i, at := range s.at {
		if at <= seconds {
			w := 1.0
			if weighted {
				w = s.ms[i]
			}
			all = append(all, done{at, w})
		}
	}
	s.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	if k > len(all) {
		k = len(all)
	}
	var rates []float64
	from, start, w := 0, 0.0, 0.0 // the phase starts at 0
	for j := 1; j <= k; j++ {
		to := j * len(all) / k
		for _, d := range all[from:to] {
			w += d.w
		}
		from = to
		if end := all[to-1].at; end > start { // else the stretch took no measurable time: join it to the next
			rates = append(rates, w/(end-start))
			start, w = end, 0
		}
	}
	return median(rates)
}

// medianOf applies f to each non-empty window, averages the results of the
// two windows that lie equally far from the middle of the phase (the first
// with the last, the second with the second last, ...) and returns the median
// of the averages: the statistic of a typical window. One window disturbed by
// the host, a collection or a neighbour does not move it, which a statistic
// pooled over the whole phase cannot say. The pairing is for tables that grow
// during the phase: latency then climbs from window to window (bulk_load's
// read from 15 to 120ms), the plain median over the windows is whatever the
// two in the middle measured and ignores the other eight, and read_p95_ms
// spread 11-14% between identical runs. A pair's average is the same for
// every pair under a steady climb, so all windows count: 3-7%.
func medianOf(windows [][]float64, f func(sorted []float64) float64) float64 {
	var vals []float64
	for i, j := 0, len(windows)-1; i <= j; i, j = i+1, j-1 {
		switch a, b := windows[i], windows[j]; {
		case len(a) > 0 && len(b) > 0 && i < j:
			vals = append(vals, (f(a)+f(b))/2)
		case len(a) > 0:
			vals = append(vals, f(a))
		case len(b) > 0:
			vals = append(vals, f(b))
		}
	}
	return median(vals)
}

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest value with at least p percent of the samples at or below it. It
// returns an observed latency, never an interpolated one. NaN when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) does (the default "exclusive" method), so
// the spreads -compare prints are the ones the acceptance driver computes.
// It needs two values or more.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		// i-th of 4 cut points, on positions 1..n with m = n+1.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return math.NaN()
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(median(vals))
}

// speedup is the geometric mean of before[i]/after[i]: how many times faster
// the after side ran the same statements.
func speedup(before, after []float64) float64 {
	if len(before) == 0 {
		return 0
	}
	var sum float64
	for i := range before {
		if before[i] <= 0 || after[i] <= 0 {
			return 0
		}
		sum += math.Log(before[i] / after[i])
	}
	return math.Exp(sum / float64(len(before)))
}

// ratio is a/b, and 0 when b is 0: a layer that did no work reports zeros.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

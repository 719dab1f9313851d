package main

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"apollo"
	"apollo/internal/metrics"
)

// The fixed configuration, identical on both sides of any comparison and
// recorded in every run record. The row-group size and bulk threshold are the
// paper's 1M / 102,400 scaled down with the data so that a 25-second phase
// still closes and compresses several delta stores.
const (
	rowGroupSize      = 32768
	bulkLoadThreshold = 4096
	fsyncPolicy       = "always"

	// setupRepeats is how many times a run builds its system: set-up time is
	// reported as the median, because one set-up is a single sample.
	setupRepeats = 3

	// traceWindows splits a traced run's timed phase into windows that
	// record spans or do not (see traced).
	traceWindows = 8

	// windowSeconds is the width of the windows every timed phase is split
	// into: each end-to-end rate, tail percentile and memory peak is computed
	// per window and reported as the median over the windows (see medianOf).
	windowSeconds = 2.0

	// gcHeadroom is how much the process may allocate between collections in
	// the timed phase (see runOne).
	gcHeadroom = 256 << 20
)

func engineConfig(seed int64) apollo.Config {
	cfg := apollo.DefaultConfig() // Mode2014, serial plans, tuple mover every 100ms
	cfg.RowGroupSize = rowGroupSize
	cfg.BulkLoadThreshold = bulkLoadThreshold
	cfg.FsyncPolicy = fsyncPolicy
	cfg.RandSeed = seed
	return cfg
}

type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	dir      string // scratch root; everything the run writes is below it
}

// scaled sizes a row or operation count by -scale, never below min.
func (p params) scaled(n int, min int) int {
	v := int(float64(n) * p.scale)
	if v < min {
		v = min
	}
	return v
}

// mix is one workload: a traffic mix and the system it runs against. The methods run in this order; setup and
// teardown repeat setupRepeats times before the last setup's system is
// driven.
type mix interface {
	// prepare computes, untimed and once, what the checks need (the
	// row-mode oracle).
	prepare(r *runState) error
	// setup generates the inputs from the seed, builds the system from them
	// and warms it. Its wall time is one setup_s sample.
	setup(r *runState) error
	// drive runs the closed-loop clients until r.done().
	drive(r *runState)
	// finish checks the end-state gates, sets the metrics that need the end
	// state and, in a traced run, measures the layers that are probed
	// rather than observed.
	finish(r *runState) error
	// teardown stops and removes what setup built.
	teardown()
}

var mixes = map[string]func() mix{
	"ssb_scan":   func() mix { return &ssbScan{} },
	"oltp_mvcc":  func() mix { return &oltpMVCC{} },
	"bulk_load":  func() mix { return &bulkLoad{} },
	"wire_mixed": func() mix { return &wireMixed{} },
}

type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// runState is what a workload reports into while it runs.
type runState struct {
	p   params
	tr  *tracer
	tmp string // this run's scratch directory

	phaseStart time.Time
	phaseDur   time.Duration
	measuring  atomic.Bool // false while warming: operations run uncounted

	reads, writes samples
	rowsWritten   samples // user rows acknowledged durable: (when, how many)
	attempted     atomic.Int64
	failed        atomic.Int64
	userBytes     atomic.Int64 // raw bytes of those rows
	stmts         atomic.Int64 // SQL statements sent
	windowOps     [2]atomic.Int64

	mu       sync.Mutex
	failures []string
	gates    []gate
	out      map[string]float64
	exact    []string
	info     map[string]any
}

func newRunState(p params) (*runState, error) {
	tmp := filepath.Join(p.dir, "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	return &runState{p: p, tr: newTracer(), tmp: tmp,
		out: map[string]float64{}, info: map[string]any{}}, nil
}

// freshDir returns an empty directory for one set-up's durable database.
func (r *runState) freshDir(name string) (string, error) {
	dir := filepath.Join(r.tmp, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func (r *runState) set(name string, v float64) {
	r.mu.Lock()
	r.out[name] = v
	r.mu.Unlock()
}

// exactRepeat flags metrics that are counts made by one client with no
// timers involved: the same seed gives the same value on every run, so a
// later issue may rest a claim on them.
func (r *runState) exactRepeat(names ...string) {
	r.mu.Lock()
	r.exact = append(r.exact, names...)
	r.mu.Unlock()
}

func (r *runState) gate(name string, ok bool, format string, args ...any) {
	r.mu.Lock()
	r.gates = append(r.gates, gate{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	r.mu.Unlock()
}

// describe records how the workload is set up, for the provenance.
func (r *runState) describe(clients int, durable bool, cacheBytes int64) {
	r.info["clients"] = clients
	r.info["durable"] = durable
	r.info["cache_bytes"] = cacheBytes
	if durable {
		r.info["fsync_policy"] = fsyncPolicy
	}
}

func (r *runState) done() bool { return time.Since(r.phaseStart) >= r.phaseDur }

// window is the index of the trace window the phase is in; it reaches
// traceWindows once the nominal phase is over (a client finishing its round).
func (r *runState) window() int {
	return int(time.Since(r.phaseStart) * traceWindows / r.phaseDur)
}

// traced says whether trace window w records spans: windows 1, 2, 4 and 7 of
// the eight do (the Thue-Morse order), so that the recording and the other
// windows sit equally early and late in the phase. Plain alternation would
// charge tracing with whatever a growing table costs the later window of
// each pair.
func traced(w int) int { return bits.OnesCount(uint(w)) % 2 }

// op runs fn as one operation of class "read" or "write" and times it. An
// operation that returns an error — a statement error, a refused or non-2xx
// request, a wrong answer — is counted as failed and contributes no latency.
// kind says which of the workload's statements of that class it runs (see
// samples.typical). fn receives the operation's span, under which it records
// its calls; the span is noSpan whenever this operation is not being traced.
func (r *runState) op(class string, kind int, fn func(op spanID) error) error {
	if !r.measuring.Load() {
		return fn(noSpan)
	}
	w := r.window()
	id := noSpan
	if r.p.trace && traced(w) == 1 {
		id = r.tr.root("op." + class)
	}
	t0 := time.Now()
	err := fn(id)
	ms := float64(time.Since(t0)) / 1e6
	r.tr.end(id)
	r.attempted.Add(1)
	if err != nil {
		r.failed.Add(1)
		r.mu.Lock()
		if len(r.failures) < 5 {
			r.failures = append(r.failures, class+": "+err.Error())
		}
		r.mu.Unlock()
		return err
	}
	at := time.Since(r.phaseStart).Seconds()
	if class == "read" {
		r.reads.add(at, ms, kind)
	} else {
		r.writes.add(at, ms, kind)
	}
	if w < traceWindows {
		r.windowOps[traced(w)].Add(1)
	}
	return nil
}

// call records a span around one call into the system.
func (r *runState) call(parent spanID, name string, fn func() error) error {
	id := r.tr.begin(parent, name)
	err := fn()
	r.tr.end(id)
	return err
}

// sent counts SQL statements issued in the timed phase.
func (r *runState) sent(n int) {
	if r.measuring.Load() {
		r.stmts.Add(int64(n))
	}
}

// wrote notes acknowledged user rows and their raw size.
func (r *runState) wrote(rows int, bytes int) {
	if r.measuring.Load() {
		r.rowsWritten.add(time.Since(r.phaseStart).Seconds(), float64(rows), 0)
		r.userBytes.Add(int64(bytes))
	}
}

// --- counters read from outside the system ---

// registryDelta is the change of the engine's process-wide metrics registry
// (what DB.MetricsSnapshot returns) over the timed phase.
type registryDelta map[string]float64

func snapshotRegistry() map[string]float64 { return metrics.Default.Snapshot() }

func deltaOf(before, after map[string]float64) registryDelta {
	d := registryDelta{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds every series of the metric: the bare name and each labelled
// variant, with the histogram suffix ("_sum", "_count") if one is given.
func (d registryDelta) sum(base, suffix string) float64 {
	var total float64
	for k, v := range d {
		if k == base+suffix || (strings.HasPrefix(k, base+"{") && strings.HasSuffix(k, "}"+suffix)) {
			total += v
		}
	}
	return total
}

func (d registryDelta) get(name string) float64 { return d.sum(name, "") }

// rssSampler samples the resident set during the timed phase, every 20ms.
// The process-lifetime peak (VmHWM) would mostly measure the input
// generator, so the benchmark frees the generated inputs first and samples
// from there.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   samples // (seconds into the phase, resident MB)
}

func residentMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(raw)
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(string(f[1]), 10, 64)
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

func startRSSSampler(phaseStart time.Time) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.mb.add(0, residentMB(), 0)
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.mb.add(time.Since(phaseStart).Seconds(), residentMB(), 0)
			}
		}
	}()
	return s
}

func (s *rssSampler) finish() *samples {
	close(s.stop)
	<-s.done
	return &s.mb
}

// --- one run ---

// record is the one output schema: a run of one workload with its
// provenance. Sets of runs are files of one record per line.
type record struct {
	Schema       string                 `json:"schema"`
	Workload     string                 `json:"workload"`
	Trace        int                    `json:"trace"`
	Provenance   map[string]any         `json:"provenance"`
	TimedSeconds float64                `json:"timed_seconds"`
	Correct      bool                   `json:"correct"`
	Attempted    int64                  `json:"attempted"`
	Failed       int64                  `json:"failed"`
	Gates        []gate                 `json:"gates"`
	Failures     []string               `json:"failures,omitempty"`
	Samples      map[string]int         `json:"samples"`
	Metrics      map[string]metricValue `json:"metrics"`
	ExactRepeat  []string               `json:"exact_repeat,omitempty"`
	Spans        map[string]spanTotals  `json:"spans,omitempty"`
	TraceFile    string                 `json:"trace_file,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(p params, sp *spec) (*record, error) {
	mk, ok := mixes[p.workload]
	if !ok || !sp.hasWorkload(p.workload) {
		return nil, fmt.Errorf("unknown workload %q", p.workload)
	}
	r, err := newRunState(p)
	if err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(r.tmp)
		syscall.Sync() // leave the next run a file system with nothing of ours pending
	}()
	w := mk()
	defer w.teardown()

	if err := w.prepare(r); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", p.workload, err)
	}
	var setupS []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.teardown()
			runtime.GC()
		}
		t0 := time.Now()
		if err := w.setup(r); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", p.workload, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	// Return what generation and loading left on the heap before sampling
	// memory, so rss_peak_mb is the system's working memory and not the
	// generator's.
	runtime.GC()
	debug.FreeOSMemory()
	// Likewise let the file system finish with what set-up wrote and deleted:
	// a journal commit that still carries the earlier set-ups' deletions (and
	// their discards) makes the first fsyncs of the timed phase slower.
	syscall.Sync()
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	regBefore := snapshotRegistry()

	// During the timed phase the collector runs each time the process has
	// allocated gcHeadroom beyond what it held at the start, not when the
	// runtime's estimate of the live heap has doubled. Operations here
	// allocate tens of megabytes each against a live heap of a few, and under
	// GOGC=100 the pacer then settles differently from run to run: reads on
	// wire_mixed spread 15% with it and 5% without.
	held := int64(memBefore.Sys - memBefore.HeapReleased)
	oldPercent := debug.SetGCPercent(-1)
	oldLimit := debug.SetMemoryLimit(held + gcHeadroom)

	r.phaseDur = time.Duration(p.seconds * float64(time.Second))
	r.phaseStart = time.Now()
	rss := startRSSSampler(r.phaseStart)
	r.measuring.Store(true)
	w.drive(r)
	elapsed := time.Since(r.phaseStart).Seconds()
	r.measuring.Store(false)
	debug.SetGCPercent(oldPercent)
	debug.SetMemoryLimit(oldLimit)

	rssMB := rss.finish()
	reg := deltaOf(regBefore, snapshotRegistry())
	runtime.ReadMemStats(&memAfter)

	// Rates, tail percentiles and the memory peak are those of the median
	// window; the central latency is samples.typical over the whole phase.
	nWin := int(math.Round(p.seconds / windowSeconds))
	if nWin < 1 {
		nWin = 1
	}
	width := p.seconds / float64(nWin)
	last := func(w []float64) float64 { return w[len(w)-1] }
	r.set("setup_s", median(setupS))
	for class, s := range map[string]*samples{"read": &r.reads, "write": &r.writes} {
		r.set(class+"_ops_per_s", s.rate(nWin, p.seconds, false))
		r.set(class+"_p50_ms", s.typical())
		r.set(class+"_p95_ms", medianOf(s.windows(nWin, width), func(w []float64) float64 { return percentile(w, 95) }))
	}
	r.set("write_rows_per_s", r.rowsWritten.rate(nWin, p.seconds, true))
	r.set("rss_peak_mb", medianOf(rssMB.windows(nWin, width), last))

	if p.trace {
		r.observedLayers(reg, elapsed, &memBefore, &memAfter)
	}
	if err := w.finish(r); err != nil {
		return nil, fmt.Errorf("%s: finish: %w", p.workload, err)
	}

	rec := &record{
		Schema:       "apollo-bench/1",
		Workload:     p.workload,
		Provenance:   provenance(p, r.info),
		TimedSeconds: elapsed,
		Attempted:    r.attempted.Load(),
		Failed:       r.failed.Load(),
		Gates:        r.gates,
		Failures:     r.failures,
		Samples:      map[string]int{"read": r.reads.n(), "write": r.writes.n(), "setup": len(setupS), "windows": nWin},
		ExactRepeat:  r.exact,
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	for _, g := range r.gates {
		rec.Correct = rec.Correct && g.OK
	}
	group := sp.EndToEnd
	if p.trace {
		rec.Trace = 1
		group = sp.PerLayer
		rec.Spans = r.tr.summarize()
		rec.TraceFile = filepath.Join(p.dir, "trace", fmt.Sprintf("%s-seed%d.csv", p.workload, p.seed))
		if err := os.MkdirAll(filepath.Dir(rec.TraceFile), 0o755); err != nil {
			return nil, err
		}
		if err := r.tr.writeFile(rec.TraceFile); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	if rec.Metrics, err = fill(group, sp, r.out); err != nil {
		return nil, fmt.Errorf("%s: %w", p.workload, err)
	}
	sort.Strings(rec.ExactRepeat)
	return rec, nil
}

// fill takes the group's metrics out of the values a run set. A listed
// metric that was not set or is not finite, and a value set under a name the
// contract does not list, are errors: the names are the contract.
func fill(group []metricSpec, sp *spec, out map[string]float64) (map[string]metricValue, error) {
	listed := map[string]bool{}
	for _, g := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
		for _, m := range g {
			listed[m.Name] = true
		}
	}
	for name := range out {
		if !listed[name] {
			return nil, fmt.Errorf("metric %q is not in the benchmark contract", name)
		}
	}
	res := make(map[string]metricValue, len(group))
	for _, m := range group {
		v, ok := out[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is not finite (no samples?)", m.Name)
		}
		res[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

func provenance(p params, info map[string]any) map[string]any {
	prov := map[string]any{
		"nproc":                  runtime.NumCPU(),
		"gomaxprocs":             runtime.GOMAXPROCS(0),
		"go_version":             runtime.Version(),
		"git_commit":             gitCommit(),
		"seed":                   p.seed,
		"scale":                  p.scale,
		"seconds":                p.seconds,
		"setup_repeats":          setupRepeats,
		"window_seconds":         windowSeconds,
		"gc_headroom_bytes":      gcHeadroom,
		"mode":                   "Mode2014",
		"parallel":               "serial",
		"row_group_size":         rowGroupSize,
		"bulk_load_threshold":    bulkLoadThreshold,
		"tuple_mover_interval_s": apollo.DefaultConfig().TupleMoverInterval.Seconds(),
	}
	for k, v := range info {
		prov[k] = v
	}
	return prov
}

// gitCommit is the revision the binary was built from, when the build ran in
// a git work tree; the acceptance driver's checkouts are not one.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

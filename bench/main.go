// Command bench is Apollo's one benchmark: four workloads, the end-to-end
// metrics a user of the system would see, and a per-layer table measured
// from outside the system. BENCHMARK.json at the repository root is its
// contract; README.md explains the metrics and how they interact.
//
// The acceptance driver runs one workload per process:
//
//	bash bench/run.sh --workload ssb_scan --seed 1 --seconds 20 --trace 0
//
// which prints the run as text and, as the last line of standard output, one
// JSON object with the keys correct, attempted, failed and metrics. Without
// --workload the command runs the whole set, each run in a child process of
// its own, and prints the tables; --aa runs the set twice and compares the
// two; --compare a b compares two files of runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

type options struct {
	params
	spec    string
	out     string
	runs    int
	aa      bool
	compare bool
}

func main() {
	var o options
	trace := 0
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result as the last line (default: the whole set)")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the timed phase (default: the contract's run_seconds)")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.Float64Var(&o.scale, "scale", 1, "scales data sizes (the smoke test uses 0.02); results compare only at equal scale")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for scratch databases, traces and run records")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "the benchmark contract")
	flag.StringVar(&o.out, "out", "", "append each run's record to this file, one JSON object per line")
	flag.IntVar(&o.runs, "runs", 1, "runs per workload in a set, on seeds seed, seed+1, ...")
	flag.BoolVar(&o.aa, "aa", false, "run the set twice and compare the two")
	flag.BoolVar(&o.compare, "compare", false, "compare two files of runs: bench -compare a.ndjson b.ndjson")
	flag.Parse()
	o.trace = trace != 0

	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	sp, err := loadSpec(o.spec)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	switch {
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two files of runs")
		}
		return compareFiles(os.Stdout, sp, args[0], args[1])
	case o.workload != "":
		return runWorkload(o, sp)
	case o.aa:
		a, b := filepath.Join(o.dir, "out", "aa-a.ndjson"), filepath.Join(o.dir, "out", "aa-b.ndjson")
		for _, f := range []string{a, b} {
			os.Remove(f) //nolint:errcheck // a missing file is what is wanted
			if err := runSet(o, sp, f); err != nil {
				return err
			}
		}
		return compareFiles(os.Stdout, sp, a, b)
	default:
		// A file named with -out is appended to, so that paired runs can
		// build two sets side by side; the default file starts empty.
		out := o.out
		if out == "" {
			out = filepath.Join(o.dir, "out", fmt.Sprintf("set-seed%d.ndjson", o.seed))
			os.Remove(out) //nolint:errcheck // a missing file is what is wanted
		}
		if err := runSet(o, sp, out); err != nil {
			return err
		}
		recs, err := readRecords(out)
		if err != nil {
			return err
		}
		printSet(os.Stdout, sp, recs)
		fmt.Printf("\nrecords: %s\n", out)
		return nil
	}
}

// runWorkload is one run in this process: the text report, the record
// appended to -out, and the driver's line last.
func runWorkload(o options, sp *spec) error {
	rec, err := runOne(o.params, sp)
	if err != nil {
		return err
	}
	printRecord(os.Stdout, sp, rec)
	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return fmt.Errorf("%s: a correctness gate failed or an operation failed", o.workload)
	}
	return nil
}

// runSet runs every workload of the contract -runs times, untraced and, with
// -trace 1, traced as well. Each run is a child process, as under the
// acceptance driver, so that no run inherits another's heap or caches.
func runSet(o options, sp *spec, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	traces := []int{0}
	if o.trace {
		traces = []int{0, 1}
	}
	for _, w := range sp.Workloads {
		for i := 0; i < o.runs; i++ {
			for _, t := range traces {
				seed := o.seed + int64(i)
				fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d\n", w.Name, seed, t)
				cmd := exec.Command(self,
					"--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(t),
					"--scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
					"--dir", o.dir, "--spec", o.spec, "--out", out)
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil { // Run waits for the child to end
					return fmt.Errorf("%s seed %d trace %d: %w", w.Name, seed, t, err)
				}
			}
		}
	}
	return nil
}

func appendRecord(path string, rec *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*record
	dec := json.NewDecoder(f)
	for dec.More() {
		var rec record
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, &rec)
	}
	return recs, nil
}

// --- text output ---

func printRecord(w io.Writer, sp *spec, rec *record) {
	fmt.Fprintf(w, "workload %s  trace %d  timed phase %.2fs  operations %d attempted, %d failed\n",
		rec.Workload, rec.Trace, rec.TimedSeconds, rec.Attempted, rec.Failed)
	keys := make([]string, 0, len(rec.Provenance))
	for k := range rec.Provenance {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "provenance:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%v", k, rec.Provenance[k])
	}
	fmt.Fprintf(w, "\nsamples: read %d, write %d, in %d windows (a rate, p95 or peak is the median of the windows' own), setup %d\n",
		rec.Samples["read"], rec.Samples["write"], rec.Samples["windows"], rec.Samples["setup"])
	for _, g := range rec.Gates {
		verdict := "ok  "
		if !g.OK {
			verdict = "MISS"
		}
		fmt.Fprintf(w, "gate %s %s: %s\n", verdict, g.Name, g.Detail)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "failed operation: %s\n", f)
	}
	group := sp.EndToEnd
	if rec.Trace == 1 {
		group = sp.PerLayer
		fmt.Fprintln(w, "per-layer metrics (operator walls are inclusive of their inputs; 0 on a layer this workload bypasses):")
	}
	exact := map[string]bool{}
	for _, n := range rec.ExactRepeat {
		exact[n] = true
	}
	for _, m := range group {
		note := ""
		if exact[m.Name] {
			note = "  (repeats exactly)"
		}
		fmt.Fprintf(w, "  %-34s %16.6g %s%s\n", m.Name, rec.Metrics[m.Name].Value, m.Unit, note)
	}
	if rec.Trace == 1 {
		fmt.Fprintf(w, "spans (%s):\n", rec.TraceFile)
		names := make([]string, 0, len(rec.Spans))
		for n := range rec.Spans {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := rec.Spans[n]
			fmt.Fprintf(w, "  %-24s count %8d  total %12.3f ms  self %12.3f ms\n", n, s.Count, s.TotalMs, s.SelfMs)
		}
	}
}

// printSet prints one table per metric group with a column per workload,
// taking the median where a workload ran on several seeds.
func printSet(w io.Writer, sp *spec, recs []*record) {
	for trace, group := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
		vals := map[string]map[string][]float64{} // metric -> workload -> values
		ok := true
		n := 0
		for _, rec := range recs {
			if rec.Trace != trace {
				continue
			}
			n++
			ok = ok && rec.Correct
			for name, mv := range rec.Metrics {
				if vals[name] == nil {
					vals[name] = map[string][]float64{}
				}
				vals[name][rec.Workload] = append(vals[name][rec.Workload], mv.Value)
			}
		}
		if n == 0 {
			continue
		}
		title := "end-to-end metrics (tracing off)"
		if trace == 1 {
			title = "per-layer metrics (traced runs; operator walls inclusive; 0 = layer bypassed)"
		}
		fmt.Fprintf(w, "\n%s, median of %d run(s) per workload, all correct: %v\n", title, n/len(sp.Workloads), ok)
		fmt.Fprintf(w, "%-34s %-7s", "metric", "unit")
		for _, wl := range sp.Workloads {
			fmt.Fprintf(w, " %14s", wl.Name)
		}
		fmt.Fprintln(w)
		for _, m := range group {
			fmt.Fprintf(w, "%-34s %-7s", m.Name, m.Unit)
			for _, wl := range sp.Workloads {
				fmt.Fprintf(w, " %14.6g", median(vals[m.Name][wl.Name]))
			}
			fmt.Fprintln(w)
		}
	}
}

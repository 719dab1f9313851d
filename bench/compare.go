package main

import (
	"fmt"
	"io"
	"math"
)

// verdict judges one end-to-end metric on one workload, side b against base
// a, by the rule the contract's bounds exist for: b's median may be worse
// than a's by at most the bound, as a share of a's median. Where either
// side's own run-to-run spread (quartile distance over median) is wider than
// the bound, the pair cannot tell a regression from noise and is reported as
// unresolved, not as unchanged.
func verdict(m metricSpec, a, b []float64) (worseBy, spreadA, spreadB float64, v string) {
	ma, mb := median(a), median(b)
	worseBy = (mb - ma) / math.Abs(ma)
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	spreadA, spreadB = spread(a), spread(b)
	switch {
	case spreadA > m.Bound || spreadB > m.Bound: // false for NaN: one run has no spread
		v = "unresolved"
	case worseBy > m.Bound:
		v = "worse"
	default:
		v = "ok"
	}
	return
}

// compareFiles prints, per workload and end-to-end metric, both medians, the
// ratio with its base, the bound and the verdict, and fails if any pair is
// worse or unresolved.
func compareFiles(w io.Writer, sp *spec, fileA, fileB string) error {
	values := func(path string) (map[string]map[string][]float64, error) {
		recs, err := readRecords(path)
		if err != nil {
			return nil, err
		}
		out := map[string]map[string][]float64{}
		for _, rec := range recs {
			if rec.Trace != 0 {
				continue
			}
			if !rec.Correct {
				return nil, fmt.Errorf("%s: a run of %s (seed %v) is not correct", path, rec.Workload, rec.Provenance["seed"])
			}
			if out[rec.Workload] == nil {
				out[rec.Workload] = map[string][]float64{}
			}
			for name, mv := range rec.Metrics {
				out[rec.Workload][name] = append(out[rec.Workload][name], mv.Value)
			}
		}
		return out, nil
	}
	a, err := values(fileA)
	if err != nil {
		return err
	}
	b, err := values(fileB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s (base)\nb = %s\n", fileA, fileB)
	fmt.Fprintf(w, "%-11s %-24s %-7s %3s %12s %12s %9s %9s %9s %7s %9s  %s\n",
		"workload", "metric", "unit", "n", "median a", "median b", "b/a", "spread a", "spread b", "bound", "worse by", "verdict")
	bad := 0
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s %s: missing on one side", wl.Name, m.Name)
			}
			worseBy, sa, sb, v := verdict(m, va, vb)
			if v != "ok" {
				bad++
			}
			fmt.Fprintf(w, "%-11s %-24s %-7s %3d %12.6g %12.6g %9.4f %8.2f%% %8.2f%% %6.0f%% %+8.2f%%  %s\n",
				wl.Name, m.Name, m.Unit, len(va), median(va), median(vb), median(vb)/median(va),
				100*sa, 100*sb, 100*m.Bound, 100*worseBy, v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload x metric pair(s) worse or unresolved", bad)
	}
	fmt.Fprintln(w, "every pair ok")
	return nil
}

package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"apollo"
)

const contract = "../BENCHMARK.json"

// TestSmoke drives all four workloads, untraced and traced, at a fiftieth of
// the data for half a second each. runOne itself refuses to return a record
// that lacks a listed metric, carries an unlisted one, or holds a value that
// is not finite; the test adds that the group is the right one, that every
// gate holds and that no operation failed.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(contract)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			p := params{workload: wl.Name, seed: 7, seconds: 0.5, trace: trace, scale: 0.02, dir: t.TempDir()}
			rec, err := runOne(p, sp)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			group := sp.EndToEnd
			if trace {
				group = sp.PerLayer
			}
			if len(rec.Metrics) != len(group) {
				t.Errorf("%s trace=%v: %d metrics, contract lists %d", wl.Name, trace, len(rec.Metrics), len(group))
			}
			for _, m := range group {
				mv, ok := rec.Metrics[m.Name]
				if !ok || mv.Unit != m.Unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", wl.Name, trace, m.Name, mv, ok)
				}
				if !trace && mv.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", wl.Name, m.Name)
				}
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d gates=%+v failures=%v",
					wl.Name, trace, rec.Correct, rec.Attempted, rec.Failed, rec.Gates, rec.Failures)
			}
			if trace {
				if _, err := os.Stat(rec.TraceFile); err != nil {
					t.Errorf("%s: trace file: %v", wl.Name, err)
				}
				if rec.Metrics["trace.spans"].Value == 0 {
					t.Errorf("%s: traced run recorded no spans", wl.Name)
				}
			}
			left, _ := filepath.Glob(filepath.Join(p.dir, "tmp", "*"))
			if len(left) != 0 {
				t.Errorf("%s: scratch left behind: %v", wl.Name, left)
			}
		}
	}
}

func TestSpecLimits(t *testing.T) {
	sp, err := loadSpec(contract)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range sp.Workloads {
		if _, ok := mixes[wl.Name]; !ok {
			t.Errorf("contract workload %s has no implementation", wl.Name)
		}
		if len(wl.Why) == 0 || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", wl.Name)
		}
	}
	if len(mixes) != len(sp.Workloads) {
		t.Errorf("%d implementations, %d contract workloads", len(mixes), len(sp.Workloads))
	}
	bad := *sp
	bad.EndToEnd = append([]metricSpec{{Name: "has space", Unit: "s", Better: "lower"}}, sp.EndToEnd...)
	if bad.validate() == nil {
		t.Error("a name with a space passed validation")
	}
	bad.EndToEnd = append([]metricSpec{sp.PerLayer[0]}, sp.EndToEnd...)
	if bad.validate() == nil {
		t.Error("a name used twice passed validation")
	}
	bad.EndToEnd = sp.EndToEnd[1:] // drops setup_s
	if bad.validate() == nil {
		t.Error("a contract without setup_s passed validation")
	}
}

func TestFillRejectsStrayAndMissingNames(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{{Name: "a", Unit: "s"}}, PerLayer: []metricSpec{{Name: "b", Unit: "s"}}}
	if _, err := fill(sp.EndToEnd, sp, map[string]float64{"a": 1, "b": 2}); err != nil {
		t.Errorf("listed names: %v", err)
	}
	if _, err := fill(sp.EndToEnd, sp, map[string]float64{"a": 1, "c": 2}); err == nil {
		t.Error("an unlisted name was accepted")
	}
	if _, err := fill(sp.EndToEnd, sp, map[string]float64{"b": 2}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := fill(sp.EndToEnd, sp, map[string]float64{"a": math.NaN()}); err == nil {
		t.Error("a NaN was accepted")
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {0, 1}, {100, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3}, 95); got != 3 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty set should give NaN")
	}
}

// The expected quartiles are statistics.quantiles(v, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{11, 1, 7, 2, 4}, 1.5, 9},
		{[]float64{5, 6}, 4.75, 6.25},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestWindowsAndMedianOf(t *testing.T) {
	var s samples
	for i, ms := range []float64{5, 1, 3, 100, 2, 9} {
		s.add(float64(i)*0.5, ms, i%2) // completes at 0, 0.5, ... 2.5s
	}
	// Kind 0 ran in 5, 3, 2 ms and kind 1 in 1, 100, 9: medians 3 and 9.
	if got := s.typical(); got != 6 {
		t.Errorf("typical = %v, want the mean of the kinds' medians 3 and 9", got)
	}
	win := s.windows(2, 1) // [0,1) and [1,2); the rest is past the phase
	if len(win[0]) != 2 || win[0][0] != 1 || len(win[1]) != 2 || win[1][1] != 100 {
		t.Fatalf("windows = %v", win)
	}
	first := func(w []float64) float64 { return w[0] }
	if got := medianOf(win, first); got != 2 {
		t.Errorf("medianOf minima = %v, want the pair's mean of 1 and 3", got)
	}
	if got := medianOf([][]float64{{4}, nil, {6}}, first); got != 5 {
		t.Errorf("empty windows should be skipped, got %v", got)
	}
	if got := medianOf([][]float64{nil, {4}, {7}, {6}}, first); got != 5.75 {
		t.Errorf("a window whose partner is empty stands alone: got %v, want the median of 6 and (4+7)/2", got)
	}
	// A steady climb with one disturbed window: every pair averages 35 but
	// the one that holds the disturbance.
	climb := [][]float64{{10}, {20}, {30}, {40}, {500}, {60}}
	if got := medianOf(climb, first); got != 35 {
		t.Errorf("medianOf of a climb = %v, want 35", got)
	}
}

func TestRate(t *testing.T) {
	var s samples
	// 40 completions at 10 a second, then a stall, then 20 more at 10 a
	// second; two after the phase ended.
	at := 0.0
	for i := 0; i < 60; i++ {
		at += 0.1
		if i == 40 {
			at += 3
		}
		s.add(at, 2, 0) // "2 rows" each when weighted
	}
	s.add(10.5, 2, 0)
	s.add(11, 2, 0)
	if got := s.rate(6, 10, false); math.Abs(got-10) > 1e-9 {
		t.Errorf("rate = %v, want 10: the stretch with the stall is not the median one", got)
	}
	if got := s.rate(6, 10, true); math.Abs(got-20) > 1e-9 {
		t.Errorf("weighted rate = %v, want 20", got)
	}
	if got := s.rate(1, 10, false); math.Abs(got-60/9.0) > 1e-9 {
		t.Errorf("one stretch = %v, want 60 completions in 9s", got)
	}
	var one samples
	one.add(0.5, 1, 0)
	if got := one.rate(10, 10, false); got != 2 {
		t.Errorf("single completion = %v, want 1/0.5s", got)
	}
}

func TestAnswerIsAMultisetHash(t *testing.T) {
	row := func(k int64, s string) apollo.Row { return apollo.Row{apollo.NewInt(k), apollo.NewString(s)} }
	a := answerOf([]apollo.Row{row(1, "x"), row(2, "y"), row(2, "y")})
	if b := answerOf([]apollo.Row{row(2, "y"), row(1, "x"), row(2, "y")}); a != b {
		t.Error("row order changed the answer")
	}
	if b := answerOf([]apollo.Row{row(1, "x"), row(2, "y")}); a == b {
		t.Error("a dropped duplicate did not change the answer")
	}
	if b := answerOf([]apollo.Row{row(1, "x"), row(1, "x"), row(2, "y")}); a == b {
		t.Error("duplicating the other row did not change the answer")
	}
	if hashRow(apollo.Row{apollo.NewString("ab"), apollo.NewString("c")}) ==
		hashRow(apollo.Row{apollo.NewString("a"), apollo.NewString("bc")}) {
		t.Error("field boundaries are not hashed")
	}
}

// A value must hash the same as a typed engine Value and as the JSON the wire
// codec sends for it.
func TestWireAndEngineRowsHashAlike(t *testing.T) {
	day, err := apollo.DateFromString("1994-03-07")
	if err != nil {
		t.Fatal(err)
	}
	engine := apollo.Row{apollo.NewInt(1234567890123), apollo.NewFloat(2.5), apollo.NewFloat(3),
		apollo.NewString("ASIA"), apollo.NewDate(day), apollo.NewBool(true), apollo.NewNull(apollo.Int64)}
	wire := []any{float64(1234567890123), 2.5, float64(3), "ASIA", "1994-03-07", true, nil}
	if hashRow(engine) != hashWireRow(wire) {
		t.Error("the same row hashes differently from the wire")
	}
	wire[0] = float64(1234567890124)
	if hashRow(engine) == hashWireRow(wire) {
		t.Error("a different key hashes alike")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "read_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "read_ops_per_s", Better: "higher", Bound: 0.1}
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center, center * 0.995, center * 1.005}
	}
	noisy := []float64{60, 100, 140, 80, 120, 100}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady(100), steady(100), "ok"},
		{"slower within bound", lower, steady(100), steady(108), "ok"},
		{"slower beyond bound", lower, steady(100), steady(112), "worse"},
		{"faster", lower, steady(100), steady(50), "ok"},
		{"throughput drop beyond bound", higher, steady(100), steady(85), "worse"},
		{"throughput gain", higher, steady(100), steady(130), "ok"},
		{"spread wider than bound", lower, noisy, steady(100), "unresolved"},
		{"one run each", lower, []float64{100}, []float64{105}, "ok"},
	} {
		if _, _, _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	sp := &spec{
		Workloads: []workloadSpec{{Name: "w1"}, {Name: "w2"}},
		EndToEnd:  []metricSpec{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}},
	}
	write := func(name string, w2 float64) string {
		path := filepath.Join(t.TempDir(), name)
		for _, wl := range []struct {
			name string
			v    float64
		}{{"w1", 1}, {"w2", w2}} {
			for i := 0; i < 4; i++ {
				rec := &record{Workload: wl.name, Correct: true, Provenance: map[string]any{"seed": i},
					Metrics: map[string]metricValue{"setup_s": {Value: wl.v * (1 + 0.01*float64(i)), Unit: "s"}}}
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	a, same, slow := write("a", 2), write("same", 2), write("slow", 3)
	var out bytes.Buffer
	if err := compareFiles(&out, sp, a, same); err != nil {
		t.Errorf("equal sets: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, sp, a, slow); err == nil || !strings.Contains(out.String(), "worse") {
		t.Errorf("w2 is half again slower but compare said: %v\n%s", err, out.String())
	}
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's own calls into the system:
// one "op" span per operation, and under it one span per call into a layer's
// public functions. Spans stay in memory until the run ends. An operation is
// traced whole or not at all: its root span decides (runState.op opens one
// only in the recording windows of a traced run), and begin under noSpan
// records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	parent int32 // index of the causing span, -1 for an operation's root
	name   string
	start  int64 // ns since the tracer was created
	end    int64
}

// spanID is an index into tracer.spans; noSpan means "not recording".
type spanID int32

const noSpan spanID = -1

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens a span nothing caused: an operation, or a probe.
func (t *tracer) root(name string) spanID { return t.record(noSpan, name) }

// begin opens a span under parent, if parent is being recorded.
func (t *tracer) begin(parent spanID, name string) spanID {
	if parent == noSpan {
		return noSpan
	}
	return t.record(parent, name)
}

func (t *tracer) record(parent spanID, name string) spanID {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{parent: int32(parent), name: name, start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id spanID) {
	if id == noSpan {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// spanTotals is one span name's count, summed duration, and summed self
// time: duration minus the part its child spans cover.
type spanTotals struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summarize folds the spans by name. Children of one span never overlap
// here (a client issues its calls one after another), so the covered part is
// the sum of the children's durations.
func (t *tracer) summarize() map[string]spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	out := map[string]spanTotals{}
	for i, s := range t.spans {
		tot := out[s.name]
		tot.Count++
		tot.TotalMs += float64(s.end-s.start) / 1e6
		tot.SelfMs += float64(s.end-s.start-covered[i]) / 1e6
		out[s.name] = tot
	}
	return out
}

// durationsMs returns the sorted durations of every span with the name.
func (t *tracer) durationsMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile writes one line per span: id, parent, name, start_ns, end_ns.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory on one goroutine; a nil tracer records
// nothing, which is how the end-to-end run has tracing off.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// spanStat summarises the spans of one name.
type spanStat struct {
	name        string
	count       int
	total, self time.Duration
}

// summary returns per-name counts, total time and self time (a span's
// duration minus the part its child spans cover), by descending total.
func (t *tracer) summary() []spanStat {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	byName := map[string]*spanStat{}
	for i, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{name: s.Name}
			byName[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.count++
		st.total += d
		st.self += d - child[i]
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].total > out[j].total })
	return out
}

func (t *tracer) print(w io.Writer) {
	fmt.Fprintf(w, "  spans: %d recorded\n", len(t.spans))
	for _, st := range t.summary() {
		fmt.Fprintf(w, "    %-24s n=%-6d total %10.1f ms  self %10.1f ms\n",
			st.name, st.count, float64(st.total)/1e6, float64(st.self)/1e6)
	}
}

// spanFile is what the traced run writes when it ends.
type spanFile struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Spans    []span            `json:"spans"`
	Layers   map[string]metric `json:"layers"`
}

// write stores the spans and the layer metrics under dir.
func (t *tracer) write(dir, workload string, seed uint64, layers map[string]metric) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("perfbench-spans-%s-seed%d.json", workload, seed))
	b, err := json.Marshal(spanFile{Workload: workload, Seed: seed, Spans: t.spans, Layers: layers})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

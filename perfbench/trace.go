package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side span: a call into one layer, timed from the
// benchmark's own code. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1 for a root span
	Req    int64  `json:"req"`    // request id shared by a request's spans
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced phases pay one nil check per call.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, End: now, Parent: parent, Req: req})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere, such as a
// fragment-instance span the engine exported in Result.Obs.
func (t *tracer) add(name string, start, end time.Time, parent int, req int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(),
		Parent: parent, Req: req})
}

// selfTimes totals, per span name, each span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += (s.End - s.Start) - intervalUnion(children[s.ID])
	}
	return self
}

// traceFile is the document written at exit.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfMs   map[string]float64 `json:"self_ms"`
	Layers   []metric           `json:"layers"`
	Spans    []span             `json:"spans"`
}

// write stores the spans, their self times and the run's layer metrics as
// JSON and returns the per-name self times in milliseconds.
func (t *tracer) write(path, workload string, seed int64, layers []metric) (map[string]float64, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	selfMs := make(map[string]float64, len(self))
	for name, ns := range self {
		selfMs[name] = float64(ns) / 1e6
	}
	doc := traceFile{Workload: workload, Seed: seed, SelfMs: selfMs, Layers: layers, Spans: spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return selfMs, os.WriteFile(path, b, 0o644)
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// tracePath is where a traced run writes its spans, inside the checkout.
func tracePath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "perfbench-trace", fmt.Sprintf("%s-seed%d.json", workload, seed))
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer: name, start and end in nanoseconds since the tracer started,
// the span that caused it (-1 for a root) and the operation they share.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the same code path serves the traced and the untraced run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex // the service workload records from two client goroutines
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, -1 on a nil tracer.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durationsMs lists the duration of every span with the given name.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfMs sums, per span name, the time not covered by child spans. The
// benchmark's spans nest strictly and siblings never overlap, so a span's
// self time is its duration minus its children's.
func (t *tracer) selfMs() map[string]float64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += float64(self[i]) / 1e6
	}
	return out
}

// traceFile is the document written to bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Unit     string             `json:"unit"`
	SelfMs   map[string]float64 `json:"self_ms"`
	Spans    []span             `json:"spans"`
}

// write stores the spans and their per-name self times.
func (t *tracer) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Unit: "ns since trace start", SelfMs: t.selfMs(), Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

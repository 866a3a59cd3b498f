// Package telemetry is ATLAHS's dependency-free observability layer:
// typed instruments (Counter, Gauge, Histogram) with atomic hot-path
// updates, a Prometheus text renderer for a list of results.Metric
// samples, plus a Timeline recorder that captures a run's op completions
// as Chrome trace-event JSON loadable in Perfetto.
//
// The package deliberately has no third-party dependencies and no
// background goroutines. Instruments are cheap enough to leave wired in
// permanently (one atomic add on the paths they count), and everything
// off the hot path — reading samples, Prometheus text rendering, timeline
// encoding — is pull-based: it costs nothing until somebody asks.
//
// There is no registry. Whoever owns instruments lists their samples as
// one literal []results.Metric in a fixed order (sim's per-run snapshot,
// the service's /metrics), so the same state always renders the same
// bytes — the property the /metrics scrape tests and the golden timeline
// pin — and the list is the catalogue of what is exported.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"atlahs/results"
)

// Counter is a monotonically increasing counter. The zero value is
// usable; increments are single atomic adds, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is usable;
// all methods are single atomic operations, safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into cumulative buckets with fixed
// upper bounds, Prometheus-style: bucket i counts observations <= the
// i-th bound, and the implicit +Inf bucket is the total count. Observe is
// lock-free — one atomic add per bucket walk plus a CAS loop for the
// sum — and safe for concurrent use.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; the last is the +Inf overflow
	sum     atomic.Uint64   // float64 bits
}

// NewHistogram builds a histogram over the given strictly ascending
// finite upper bounds. An empty bounds slice is allowed: the histogram
// then only tracks count and sum.
func NewHistogram(bounds []float64) *Histogram {
	for i := range bounds {
		if math.IsNaN(bounds[i]) || math.IsInf(bounds[i], 0) {
			panic(fmt.Sprintf("telemetry: histogram bound %d is not finite", i))
		}
		if i > 0 && bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not strictly ascending at %d (%v <= %v)", i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Sample reads the histogram as one results.Metric: buckets cumulative
// over the finite bounds, and Count the total including the implicit
// +Inf bucket. Count is summed from the buckets it is read with, so the
// two always agree; Sum may be a concurrent observation ahead or behind.
func (h *Histogram) Sample(name, help string) results.Metric {
	m := results.Metric{Name: name, Type: "histogram", Help: help, Sum: h.Sum(),
		Buckets: make([]results.MetricBucket, len(h.bounds))}
	var cum uint64
	for i, le := range h.bounds {
		cum += h.buckets[i].Load()
		m.Buckets[i] = results.MetricBucket{LE: le, Count: cum}
	}
	m.Count = cum + h.buckets[len(h.bounds)].Load()
	return m
}

// ExpBuckets returns n strictly ascending bounds starting at start and
// multiplying by factor — the standard exponential bucket layout for
// latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

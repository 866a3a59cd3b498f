package telemetry

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"atlahs/results"
)

func TestCounterGaugeSemantics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	for range 10 {
		g.Inc()
	}
	for range 3 {
		g.Dec()
	}
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.5, 2})
	for _, v := range []float64{0.25, 0.5, 4} {
		h.Observe(v)
	}
	if got := h.Sample("h", "").Count; got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	if got := h.Sum(); got != 4.75 {
		t.Fatalf("sum = %v, want 4.75", got)
	}
	m := h.Sample("h", "")
	// An observation equal to a bound lands in that bucket (le semantics).
	want := []results.MetricBucket{{LE: 0.5, Count: 2}, {LE: 2, Count: 2}}
	if !reflect.DeepEqual(m.Buckets, want) || m.Count != 3 || m.Sum != 4.75 || m.Type != "histogram" {
		t.Fatalf("sample = %+v, want buckets %v count 3 sum 4.75", m, want)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

// TestConcurrentIncrements is the -race gate on the hot-path
// instruments: four goroutines hammer a counter, a gauge and a histogram
// concurrently; the totals must be exact.
func TestConcurrentIncrements(t *testing.T) {
	const workers, perWorker = 4, 10000
	var c Counter
	var g Gauge
	h := NewHistogram([]float64{1, 10})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				h.Observe(float64(i % 20))
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Fatalf("gauge = %d, want %d", got, workers*perWorker)
	}
	if got := h.Sample("h", "").Count; got != workers*perWorker {
		t.Fatalf("histogram sample count = %d, want %d", got, workers*perWorker)
	}
}

// TestWritePrometheusDeterministic pins the exact exposition bytes for
// a fixed sample list: families in list order with one HELP/TYPE pair
// each, labelled samples as given, histogram buckets cumulative with the
// +Inf row.
func TestWritePrometheusDeterministic(t *testing.T) {
	build := func() []results.Metric {
		var c Counter
		var a, b Gauge
		h := NewHistogram([]float64{0.5, 2})
		c.Add(3)
		b.Inc()
		b.Inc()
		a.Inc()
		for _, v := range []float64{0.25, 0.5, 4} {
			h.Observe(v)
		}
		return []results.Metric{
			{Name: "atlahs_test_total", Type: "counter", Help: "a counter", Value: float64(c.Value())},
			{Name: "atlahs_depth", Type: "gauge", Help: "a labelled gauge", Label: "class", LabelValue: "a", Value: float64(a.Value())},
			{Name: "atlahs_depth", Type: "gauge", Help: "a labelled gauge", Label: "class", LabelValue: "b", Value: float64(b.Value())},
			h.Sample("atlahs_wall_seconds", "a histogram"),
		}
	}
	want := strings.Join([]string{
		"# HELP atlahs_test_total a counter",
		"# TYPE atlahs_test_total counter",
		"atlahs_test_total 3",
		"# HELP atlahs_depth a labelled gauge",
		"# TYPE atlahs_depth gauge",
		`atlahs_depth{class="a"} 1`,
		`atlahs_depth{class="b"} 2`,
		"# HELP atlahs_wall_seconds a histogram",
		"# TYPE atlahs_wall_seconds histogram",
		`atlahs_wall_seconds_bucket{le="0.5"} 2`,
		`atlahs_wall_seconds_bucket{le="2"} 2`,
		`atlahs_wall_seconds_bucket{le="+Inf"} 3`,
		"atlahs_wall_seconds_sum 4.75",
		"atlahs_wall_seconds_count 3",
		"",
	}, "\n")
	for i := 0; i < 3; i++ {
		var b strings.Builder
		if err := WritePrometheus(&b, build()); err != nil {
			t.Fatal(err)
		}
		if b.String() != want {
			t.Fatalf("scrape %d:\ngot:\n%s\nwant:\n%s", i, b.String(), want)
		}
	}
}

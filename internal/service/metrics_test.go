package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"atlahs/results"
	"atlahs/sim"
)

// scrapeMetrics renders GET /metrics through the handler, in text or
// (json true) the atlahs.metrics/v1 form.
func scrapeMetrics(t *testing.T, svc *Service, json bool) []byte {
	t.Helper()
	target := "/metrics"
	if json {
		target += "?format=json"
	}
	rec := httptest.NewRecorder()
	svc.handleMetrics(rec, httptest.NewRequest("GET", target, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: %d", target, rec.Code)
	}
	return rec.Body.Bytes()
}

// TestServiceMetricsPinned pins both forms of the /metrics scrape byte for
// byte at a fixed state: every label value of the run, cache and eviction
// counters touched, no class ever queued, fixed run-wall observations and
// engine aggregates. A rewrite of how the scrape is built must reproduce
// both documents.
func TestServiceMetricsPinned(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	m := svc.metrics
	m.runsDone.Add(3)
	m.runsFailed.Inc()
	m.cacheHit.Add(2)
	m.cacheLookaside.Add(5)
	m.cacheMiss.Add(3)
	m.evictedRuns.Add(2)
	m.evictedSweeps.Inc()
	m.singleflight.Inc()
	m.sseSubscribers.Inc()
	m.sseSubscribers.Inc()
	m.sseDropped.Add(7)
	m.execBusy.Inc()
	for _, v := range []float64{0.0005, 0.002, 0.03, 0.5, 42} {
		m.runWall.Observe(v)
	}
	m.foldRun(results.NewMetricsSnapshot([]results.Metric{
		{Name: "atlahs_engine_events_total", Type: "counter", Value: 240000},
		{Name: "atlahs_engine_peak_pending", Type: "gauge", Value: 99},
		{Name: "atlahs_engine_windows_total", Type: "counter", Value: 12},
		{Name: "atlahs_engine_windows_widened_total", Type: "counter", Value: 3},
		{Name: "atlahs_engine_windows_inline_total", Type: "counter", Value: 4},
		{Name: "atlahs_engine_windows_dispatched_total", Type: "counter", Value: 8},
		{Name: "atlahs_engine_worker_wakeups_total", Type: "counter", Value: 16},
		{Name: "atlahs_engine_active_lanes_total", Type: "counter", Value: 24},
	}))
	for _, c := range []struct {
		json bool
		pin  string
	}{
		{false, "48988f9eb57550b47e6a31a4fd74a616bf322e37a9bff44a1769401399e8ff29"},
		{true, "ca00fec080fcb3b3c5d3cf372c7aeb32a6c20e9619a74c000d09c6b07790bbaf"},
	} {
		sum := sha256.Sum256(scrapeMetrics(t, svc, c.json))
		if got := hex.EncodeToString(sum[:]); got != c.pin {
			t.Errorf("json=%v: scrape SHA-256 %s, pinned %s\n%s", c.json, got, c.pin, scrapeMetrics(t, svc, c.json))
		}
	}
}

// TestMetricsDoNotGrowWithClasses: an admission class is whatever
// X-Submitter a client sends, or one per sweep, so the scrape must keep
// no series for a class once its runs have left the queue. After 2 000
// submitters and a few sweeps have drained, /metrics has no queue-depth
// sample and is within 1 KB of a scrape taken before them: only the
// counters' digits grew.
func TestMetricsDoNotGrowWithClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("2 000 simulations")
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil)) // thousands of runs
	svc, ts := testServer(t, Config{Jobs: 2, Cache: 8, Logger: quiet})
	before := scrapeMetrics(t, svc, false)
	post := func(path, submitter string, body []byte) {
		req, err := http.NewRequest("POST", ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if submitter != "" {
			req.Header.Set("X-Submitter", submitter)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s as %q: %d", path, submitter, resp.StatusCode)
		}
	}
	for i := range 2000 {
		post("/v1/runs?wait=1", fmt.Sprintf("client-%d", i), wireSpec(t, int64(100000+i)))
	}
	for i := range 3 {
		specs := string(wireSpec(t, int64(200000+2*i))) + `,` + string(wireSpec(t, int64(200001+2*i)))
		post("/v1/sweeps?wait=1", "", []byte(`{"schema":"atlahs.sweep/v1","specs":[`+specs+`]}`))
	}
	after := scrapeMetrics(t, svc, false)
	if bytes.Contains(after, []byte("atlahs_service_queue_depth")) {
		t.Fatalf("drained classes still scrape a queue depth (%d bytes):\n%.2000s", len(after), after)
	}
	if grew := len(after) - len(before); grew > 1024 || grew < -1024 {
		t.Fatalf("scrape went from %d to %d bytes", len(before), len(after))
	}
	if !bytes.Contains(after, []byte(`atlahs_service_runs_total{status="done"} 2006`)) {
		t.Fatalf("scrape does not count the 2 006 runs:\n%s", after)
	}
	t.Logf("scrape %d bytes before, %d after", len(before), len(after))
}

// catalogue is the service's metric families in scrape order.
var catalogue = []struct{ name, typ, label, help string }{
	{"atlahs_service_queue_depth", "gauge", "class", "submitted-but-not-started runs per admission class"},
	{"atlahs_service_runs_total", "counter", "status", "terminal runs by outcome"},
	{"atlahs_service_cache_requests_total", "counter", "result", "submissions by cache verdict"},
	{"atlahs_service_singleflight_joins_total", "counter", "", "submissions that joined an in-flight run"},
	{"atlahs_service_evictions_total", "counter", "kind", "entries dropped past the cache bound, by kind"},
	{"atlahs_service_sse_subscribers", "gauge", "", "attached event-stream subscriptions"},
	{"atlahs_service_sse_dropped_events_total", "counter", "", "op/progress events dropped to lagging subscribers"},
	{"atlahs_service_executors_busy", "gauge", "", "executor slots currently simulating"},
	{"atlahs_service_run_wall_seconds", "histogram", "", "wall clock per executed run"},
	{"atlahs_engine_events_total", "counter", "", "engine events executed across runs"},
	{"atlahs_engine_windows_total", "counter", "", "conservative windows executed across runs"},
	{"atlahs_engine_windows_widened_total", "counter", "", "adaptively widened windows across runs"},
	{"atlahs_engine_windows_inline_total", "counter", "", "inline-executed windows across runs"},
	{"atlahs_engine_windows_dispatched_total", "counter", "", "pool-dispatched windows across runs"},
	{"atlahs_engine_worker_wakeups_total", "counter", "", "worker wakeups across runs"},
	{"atlahs_engine_active_lanes_total", "counter", "", "active-lane window sum across runs"},
}

// TestMetricCatalogue pins the families a fresh service scrapes, with one
// run queued so the per-class depth has a sample: name, type, label key
// and help, in scrape order. The snapshot validates, each family's
// samples sit together under one type, label key and help, no family
// appears twice, label keys have the metric-name shape, and README's
// Observability section names every family.
func TestMetricCatalogue(t *testing.T) {
	svc := newService(t, Config{Jobs: 1, Queue: 4})
	first, err := svc.Submit(sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: 5555}},
		Backend: "blocksim"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := svc.SubmitIn("probe", sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: 6666}},
		Backend: "blocksim"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		blockGate <- struct{}{}
		blockGate <- struct{}{}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, id := range []string{first.ID, queued.ID} {
			if _, err := svc.Wait(ctx, id); err != nil {
				t.Error(err)
			}
		}
	})

	samples := svc.metrics.snapshot(svc.sched)
	if err := results.NewMetricsSnapshot(samples).Validate(); err != nil {
		t.Fatalf("snapshot does not validate: %v", err)
	}
	labelKey := regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)
	var families []results.Metric
	seen := map[string]bool{}
	for _, m := range samples {
		if n := len(families); n > 0 && families[n-1].Name == m.Name {
			if f := families[n-1]; f.Type != m.Type || f.Label != m.Label || f.Help != m.Help {
				t.Errorf("family %s: sample %+v differs from its first %+v", m.Name, m, f)
			}
			continue
		}
		if seen[m.Name] {
			t.Errorf("family %s appears twice, or its samples are apart", m.Name)
		}
		seen[m.Name] = true
		if m.Label != "" && !labelKey.MatchString(m.Label) {
			t.Errorf("family %s: invalid label key %q", m.Name, m.Label)
		}
		families = append(families, m)
	}
	if len(families) != len(catalogue) {
		t.Errorf("%d families, catalogue has %d", len(families), len(catalogue))
	}
	for i := range min(len(families), len(catalogue)) {
		f, c := families[i], catalogue[i]
		if f.Name != c.name || f.Type != c.typ || f.Label != c.label || f.Help != c.help {
			t.Errorf("family %d: {%s %s %s %q}, catalogue {%s %s %s %q}", i, f.Name, f.Type, f.Label, f.Help, c.name, c.typ, c.label, c.help)
		}
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Observability\n")
	if !ok {
		t.Fatal("README has no Observability section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	for _, c := range catalogue {
		if !strings.Contains(section, c.name) {
			t.Errorf("README's Observability section does not name %s", c.name)
		}
	}
}

// TestMetricsScrapeUnderLoad scrapes /metrics?format=json while two
// submitters in their own classes and one sweep queue and run. The runs
// use the gated backend and the scraper releases one per scrape, so
// scrapes and runs interleave. Every scrape decodes and validates, no
// queue depth is negative, no counter goes backwards between scrapes, and
// some scrape sees queued runs.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	svc, ts := testServer(t, Config{Jobs: 2, Queue: 128, Logger: quiet})
	const perClass = 32
	spec := func(tag int) sim.Spec {
		return sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: int64(40000 + tag)}},
			Backend: "blocksim"}
	}
	stop := make(chan struct{})
	scraped := make(chan bool)
	go func() {
		sawQueued := false
		last := map[string]float64{}
		// scrape checks one scrape; it never stops the loop, which must
		// keep releasing runs.
		scrape := func(n int) {
			resp, err := http.Get(ts.URL + "/metrics?format=json")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			ms, err := results.DecodeMetricsJSON(resp.Body)
			if err != nil {
				t.Errorf("scrape %d: %v", n, err)
				return
			}
			for _, m := range ms.Metrics {
				key := m.Name + "/" + m.LabelValue
				switch {
				case m.Name == "atlahs_service_queue_depth" && m.Value < 0:
					t.Errorf("scrape %d: class %s depth %v", n, m.LabelValue, m.Value)
				case m.Name == "atlahs_service_queue_depth":
					sawQueued = true
				case m.Type == "counter" && m.Value < last[key]:
					t.Errorf("scrape %d: %s went from %v to %v", n, key, last[key], m.Value)
				}
				last[key] = m.Value
			}
		}
		for n := 1; ; n++ {
			scrape(n)
			select {
			case blockGate <- struct{}{}:
			case <-stop:
				scraped <- sawQueued
				return
			}
		}
	}()

	var wg sync.WaitGroup
	var ids sync.Map
	for c, class := range []string{"alice", "bob"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perClass {
				snap, err := svc.SubmitIn(class, spec(1000*c+i))
				if err != nil {
					t.Error(err)
					return
				}
				ids.Store(snap.ID, true)
			}
		}()
	}
	specs := make([]sim.Spec, perClass)
	for i := range specs {
		specs[i] = spec(2000 + i)
	}
	b, err := svc.SubmitSweep("", specs)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := svc.WaitSweep(ctx, b.ID); err != nil {
		t.Error(err)
	}
	ids.Range(func(id, _ any) bool {
		if _, err := svc.Wait(ctx, id.(string)); err != nil {
			t.Error(err)
		}
		return true
	})
	close(stop)
	if !<-scraped {
		t.Error("no scrape saw a queued run")
	}
}

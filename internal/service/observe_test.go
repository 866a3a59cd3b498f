package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"atlahs/results"
	"atlahs/sim"
)

// TestHTTPMetricsScrape pins the /metrics surface: the cache verdict
// counters move as documented across a miss and a fast-path hit, the
// eviction counters across runs and sweeps pushed past the cache bound,
// the text exposition is deterministic across back-to-back idle scrapes,
// and ?format=json yields a valid atlahs.metrics/v1 document carrying the
// same counters.
func TestHTTPMetricsScrape(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1})
	spec := wireSpec(t, 90)

	if _, rr := postSpec(t, ts.URL, spec); rr.Status != StatusDone {
		t.Fatalf("first submission: %+v", rr)
	}
	if _, rr := postSpec(t, ts.URL, spec); !rr.Cached {
		t.Fatalf("second submission not cached: %+v", rr)
	}

	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics: %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("GET /metrics Content-Type %q", ct)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	text := scrape()
	for _, want := range []string{
		`atlahs_service_cache_requests_total{result="lookaside"} 1`,
		`atlahs_service_cache_requests_total{result="miss"} 1`,
		`atlahs_service_runs_total{status="done"} 1`,
		"# TYPE atlahs_service_run_wall_seconds histogram",
		"atlahs_service_run_wall_seconds_count 1",
		"atlahs_engine_events_total",
		`atlahs_service_evictions_total{kind="run"} 0`,
		`atlahs_service_evictions_total{kind="sweep"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape is missing %q:\n%s", want, text)
		}
	}
	// An idle service scrapes identically: the snapshot is deterministic.
	if again := scrape(); again != text {
		t.Fatalf("idle scrapes differ:\n%s\n---\n%s", text, again)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ms, err := results.DecodeMetricsJSON(resp.Body)
	if err != nil {
		t.Fatalf("JSON scrape does not validate: %v", err)
	}
	found := false
	for _, m := range ms.Metrics {
		if m.Name == "atlahs_service_cache_requests_total" && m.LabelValue == "miss" && m.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("JSON scrape is missing the miss counter: %+v", ms.Metrics)
	}

	// With room for one entry of each kind, a second run evicts the first
	// and a second sweep the first sweep; each sweep's own run evicts the
	// run before it.
	small, ts := testServer(t, Config{Jobs: 1, Cache: 1})
	for _, tag := range []int64{92, 93} {
		if _, rr := postSpec(t, ts.URL, wireSpec(t, tag)); rr.Status != StatusDone {
			t.Fatalf("submission %d: %+v", tag, rr)
		}
	}
	for _, tag := range []int64{94, 95} {
		b, err := small.SubmitSweep("", []sim.Spec{countSpec(tag)})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, err = small.Wait(ctx, b.Runs[0].ID)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
	}
	text = scrape()
	for _, want := range []string{
		`atlahs_service_evictions_total{kind="run"} 3`,
		`atlahs_service_evictions_total{kind="sweep"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape is missing %q:\n%s", want, text)
		}
	}
	if again := scrape(); again != text {
		t.Fatalf("idle scrapes differ:\n%s\n---\n%s", text, again)
	}
}

// TestHTTPRunMetricsAndTrace pins the per-run documents: a finished run
// serves its engine-counter snapshot at /v1/runs/{id}/metrics, and — with
// Config.Timeline on — its Chrome trace-event timeline at
// /v1/runs/{id}/trace.
func TestHTTPRunMetricsAndTrace(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1, Timeline: true})
	_, rr := postSpec(t, ts.URL, wireSpec(t, 91))
	if rr.Status != StatusDone {
		t.Fatalf("submission: %+v", rr)
	}

	resp, err := http.Get(ts.URL + "/v1/runs/" + rr.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET run metrics: %d", resp.StatusCode)
	}
	ms, err := results.DecodeMetricsJSON(resp.Body)
	if err != nil {
		t.Fatalf("run metrics do not validate: %v", err)
	}
	events := -1.0
	for _, m := range ms.Metrics {
		if m.Name == "atlahs_engine_events_total" {
			events = m.Value
		}
	}
	if events <= 0 {
		t.Fatalf("run metrics carry no event count: %+v", ms.Metrics)
	}

	tresp, err := http.Get(ts.URL + "/v1/runs/" + rr.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET run trace: %d", tresp.StatusCode)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace carries no events")
	}

	// Without Timeline recording, the trace endpoint is a 404.
	_, ts2 := testServer(t, Config{Jobs: 1})
	_, rr2 := postSpec(t, ts2.URL, wireSpec(t, 91))
	nresp, err := http.Get(ts2.URL + "/v1/runs/" + rr2.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace without recording: %d, want 404", nresp.StatusCode)
	}
}

// TestHTTPHealthz pins the readiness document: ok plus queue, executor,
// store and uptime fields.
func TestHTTPHealthz(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, Config{Jobs: 2, ArtifactDir: dir})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/healthz: %d", resp.StatusCode)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.Ok {
		t.Fatalf("healthz not ok: %+v", h)
	}
	if h.UptimeSeconds < 0 || h.QueueDepth != 0 {
		t.Fatalf("healthz counters: %+v", h)
	}
	if h.Executors.Busy+h.Executors.Idle != 2 {
		t.Fatalf("executor accounting: %+v", h.Executors)
	}
	if !h.Store.Configured || !h.Store.Writable || h.Store.Path != dir {
		t.Fatalf("store health: %+v", h.Store)
	}

	// Without a store the probe still answers ok — nothing to persist to
	// means nothing can be unwritable.
	_, ts2 := testServer(t, Config{Jobs: 1})
	resp2, err := http.Get(ts2.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var h2 healthResponse
	if err := json.NewDecoder(resp2.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	if !h2.Ok || h2.Store.Configured {
		t.Fatalf("storeless healthz: %+v", h2)
	}
}

// TestSSEBackpressureDrops forces a lagging subscriber: a run emitting far
// more op events than the subscription buffer holds, with nobody draining
// until it finishes. The dropped events must surface on the terminal
// event, the run snapshot, and the run's JSON wire shape.
func TestSSEBackpressureDrops(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	// 32-rank alltoall: 32*31 sends + matching recvs, several times the
	// 1024-slot subscription buffer.
	spec := sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "alltoall", Ranks: 32, Bytes: 256}},
		Backend: "blocksim"}
	snap, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	sub, ok := svc.Subscribe(snap.ID)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer sub.Close()
	blockGate <- struct{}{} // release the factory; the run floods the idle subscriber
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := svc.Wait(ctx, snap.ID); err != nil {
		t.Fatal(err)
	}
	var last Event
	for ev := range sub.C {
		last = ev
	}
	done, ok := last.Data.(DoneData)
	if !ok {
		t.Fatalf("terminal event is %T (%+v)", last.Data, last)
	}
	if done.DroppedEvents == 0 {
		t.Fatal("terminal event discloses no dropped events under forced backpressure")
	}
	if sub.Dropped() == 0 {
		t.Fatal("subscription drop counter did not move")
	}
	// Delivering the terminal event itself can displace a few more
	// buffered events after its payload was built, so the snapshot may be
	// marginally ahead of the disclosure — never behind it.
	final, _ := svc.Get(snap.ID)
	if final.Dropped < done.DroppedEvents {
		t.Fatalf("snapshot dropped %d, terminal event %d", final.Dropped, done.DroppedEvents)
	}
	if rr := newRunResponse(final); rr.DroppedEvents != final.Dropped {
		t.Fatalf("wire shape dropped %d, snapshot %d", rr.DroppedEvents, final.Dropped)
	}
}

// TestQueueDepthGauge pins the admission gauge: queued-but-not-started
// runs appear under their class and drain back to zero.
func TestQueueDepthGauge(t *testing.T) {
	svc := newService(t, Config{Jobs: 1, Queue: 4})
	blocked := sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: 3333}},
		Backend: "blocksim"}
	first, err := svc.Submit(blocked)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the executor picked the job up (queue empty again).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s, _ := svc.Get(first.ID); s.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	second := sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: 4444}},
		Backend: "blocksim"}
	if _, err := svc.SubmitIn("probe", second); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := svc.metrics.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `atlahs_service_queue_depth{class="probe"} 1`) {
		t.Fatalf("queue gauge missing:\n%s", buf.String())
	}
	blockGate <- struct{}{}
	blockGate <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := svc.Wait(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
}

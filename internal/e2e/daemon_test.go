package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"atlahs/internal/analyze"
	"atlahs/internal/service"
	"atlahs/results"
	"atlahs/sim"
)

// client bounds every request, so a wedged daemon fails the test instead
// of hanging it.
var client = &http.Client{Timeout: 30 * time.Second}

// daemon is one atlahsd process serving on a loopback port the test
// picked.
type daemon struct {
	url string
	log string // the daemon's stderr
	cmd *exec.Cmd
	// done closes once the process has exited; err is then Wait's result.
	done chan struct{}
	err  error
}

// startDaemon runs atlahsd with args on a free loopback port and returns
// once it answers /v1/healthz. The test's cleanup kills it if it still
// runs.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	path := bin(t, "atlahsd")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	logFile, err := os.CreateTemp(t.TempDir(), "atlahsd-*.log")
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close() // the child writes through its own descriptor
	d := &daemon{
		url:  "http://" + addr,
		log:  logFile.Name(),
		cmd:  exec.Command(path, append([]string{"-addr", addr}, args...)...),
		done: make(chan struct{}),
	}
	d.cmd.Stderr = logFile
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill() // fails harmlessly once the process has exited
		<-d.done
	})
	for deadline := time.Now().Add(20 * time.Second); ; {
		if resp, err := client.Get(d.url + "/v1/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		select {
		case <-d.done:
			t.Fatalf("atlahsd exited before becoming healthy: %v\n%s", d.err, d.logText(t))
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("atlahsd not healthy after 20s\n%s", d.logText(t))
		}
	}
}

// stop sends SIGTERM and requires the graceful shutdown ListenAndServe
// documents: the process drains and exits 0.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		t.Fatalf("atlahsd still running 20s after SIGTERM\n%s", d.logText(t))
	}
	if d.err != nil {
		t.Fatalf("atlahsd on SIGTERM: %v, want exit 0\n%s", d.err, d.logText(t))
	}
}

func (d *daemon) logText(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(d.log)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// post submits body to path and returns the Cache-Status verdict and the
// response body, failing unless the daemon accepted the submission.
func (d *daemon) post(t *testing.T, path string, body []byte) (cacheStatus string, out []byte) {
	t.Helper()
	resp, err := client.Post(d.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s: %s\n%s", path, resp.Status, out)
	}
	return resp.Header.Get("Cache-Status"), out
}

// get fetches path and returns the body, failing unless it is a 200.
func (d *daemon) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := client.Get(d.url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", path, resp.Status, out)
	}
	return out
}

// runDoc and sweepDoc read the service's run and sweep responses.
type runDoc struct {
	ID     string              `json:"id"`
	Status string              `json:"status"`
	Cached bool                `json:"cached"`
	Result *service.JSONResult `json:"result"`
}

type sweepDoc struct {
	ID     string `json:"id"`
	Specs  int    `json:"specs"`
	Total  int    `json:"total"`
	Done   int    `json:"done"`
	Failed int    `json:"failed"`
	Cached int    `json:"cached"`
}

// bspSpec is an 8-rank synthetic spec; seed makes distinct runs.
func bspSpec(t *testing.T, seed uint64) []byte {
	t.Helper()
	b, err := sim.MarshalSpec(sim.Spec{
		Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "bsp", Ranks: 8, Bytes: 4096, Phases: 3}},
		Backend:  "lgs", Workers: -1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// submitRun posts spec with ?wait=1 and requires a finished run with the
// given cache verdict.
func (d *daemon) submitRun(t *testing.T, spec []byte, verdict string) runDoc {
	t.Helper()
	cs, body := d.post(t, "/v1/runs?wait=1", spec)
	var r runDoc
	decode(t, body, &r)
	if cs != verdict || r.Status != "done" || r.Cached != (verdict == "hit") || r.Result == nil || r.Result.Ops == 0 {
		t.Fatalf("submission: Cache-Status %q (want %s), body %s", cs, verdict, body)
	}
	return r
}

// submitSweep posts the sweep with ?wait=1 and requires every run done.
func (d *daemon) submitSweep(t *testing.T, sweep []byte, verdict string) sweepDoc {
	t.Helper()
	cs, body := d.post(t, "/v1/sweeps?wait=1", sweep)
	var s sweepDoc
	decode(t, body, &s)
	if cs != verdict || s.Failed != 0 || s.Done != s.Total {
		t.Fatalf("sweep: Cache-Status %q (want %s), body %s", cs, verdict, body)
	}
	return s
}

// TestServiceCacheSurvivesRestart: identical submissions are answered from
// the content-addressed cache — runs and sweeps, before and after a
// SIGTERM and a restart over the same artifact directory — with
// byte-identical artifacts, and the analytics endpoints read the rebuilt
// state.
func TestServiceCacheSurvivesRestart(t *testing.T) {
	t.Parallel()
	store := t.TempDir()
	d := startDaemon(t, "-artifacts", store)
	spec := bspSpec(t, 1)
	sweep, err := results.MarshalDoc(service.SweepRequest{
		Schema: service.SweepSchema,
		Specs:  []json.RawMessage{spec, bspSpec(t, 2), spec},
	})
	if err != nil {
		t.Fatal(err)
	}

	id := d.submitRun(t, spec, "miss").ID
	artifact := d.get(t, "/v1/runs/"+id+"/artifact")
	if r := d.submitRun(t, spec, "hit"); r.ID != id {
		t.Fatalf("re-submission answered as run %s, want %s", r.ID, id)
	}
	if got := d.get(t, "/v1/runs/"+id+"/artifact"); !bytes.Equal(got, artifact) {
		t.Error("cached artifact is not byte-identical")
	}
	if last := lastEvent(d.get(t, "/v1/runs/"+id+"/events")); last != "done" {
		t.Errorf("SSE stream ends with %q, want done", last)
	}

	// The in-batch duplicate collapses: three specs, two runs, one of
	// them already cached.
	s := d.submitSweep(t, sweep, "miss")
	if s.Specs != 3 || s.Total != 2 {
		t.Fatalf("sweep: specs %d, total %d; want 3 and 2", s.Specs, s.Total)
	}
	if again := d.submitSweep(t, sweep, "hit"); again.ID != s.ID || again.Cached != 2 {
		t.Fatalf("re-submitted sweep %+v: want id %s with 2 cached runs", again, s.ID)
	}
	set := d.get(t, "/v1/sweeps/"+s.ID+"/artifact")
	var sweepSet struct {
		Schema string                     `json:"schema"`
		Runs   map[string]json.RawMessage `json:"runs"`
	}
	decode(t, set, &sweepSet)
	if sweepSet.Schema != service.SweepSetSchema || len(sweepSet.Runs) != 2 {
		t.Fatalf("sweep artifact: schema %q with %d runs", sweepSet.Schema, len(sweepSet.Runs))
	}

	d.stop(t)
	d = startDaemon(t, "-artifacts", store)
	if !strings.Contains(d.logText(t), "rebuilt run index") {
		t.Fatalf("restarted atlahsd did not rebuild its run index:\n%s", d.logText(t))
	}
	// The restarted process never saw these specs: the hits come from the
	// rebuilt index.
	if r := d.submitRun(t, spec, "hit"); r.ID != id {
		t.Fatalf("post-restart submission answered as run %s, want %s", r.ID, id)
	}
	if got := d.get(t, "/v1/runs/"+id+"/artifact"); !bytes.Equal(got, artifact) {
		t.Error("post-restart artifact is not byte-identical")
	}
	if again := d.submitSweep(t, sweep, "hit"); again.ID != s.ID || again.Cached != 2 {
		t.Fatalf("post-restart sweep %+v: want id %s with 2 cached runs", again, s.ID)
	}
	if got := d.get(t, "/v1/sweeps/"+s.ID+"/artifact"); !bytes.Equal(got, set) {
		t.Error("post-restart sweep artifact is not byte-identical")
	}

	var h analyze.History
	if err := results.DecodeDoc(bytes.NewReader(d.get(t, "/v1/history")), "history", analyze.HistorySchema, &h); err != nil {
		t.Fatal(err)
	}
	var runtime []results.Series
	for _, s := range h.Series {
		if s.Metric == "runtime_ps" {
			runtime = append(runtime, s)
		}
	}
	if len(runtime) != 1 || !hasPoint(runtime[0], id) {
		t.Errorf("/v1/history: runtime_ps series %+v, want one holding run %s", runtime, id)
	}
	if html := d.get(t, "/v1/history?format=html"); !bytes.Contains(html, []byte("runtime_ps")) {
		t.Error("/v1/history?format=html does not render runtime_ps")
	}
	var self struct {
		Regressed bool            `json:"regressed"`
		Diff      json.RawMessage `json:"diff"`
	}
	decode(t, d.get(t, "/v1/analyze/diff?a="+id+"&b="+id), &self)
	diff, err := results.DecodeDiffJSON(bytes.NewReader(self.Diff))
	if err != nil {
		t.Fatal(err)
	}
	if self.Regressed || diff.Changed != 0 {
		t.Errorf("self-diff: regressed %v, %d changed rows", self.Regressed, diff.Changed)
	}

	d.stop(t)
	if names := artifacts(t, store); !names[id] {
		t.Errorf("run %s was not persisted; store holds %v", id, names)
	}
}

// lastEvent returns the type of the last event in an SSE stream.
func lastEvent(stream []byte) string {
	last := ""
	sc := bufio.NewScanner(bytes.NewReader(stream))
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			last = ev
		}
	}
	return last
}

func hasPoint(s results.Series, label string) bool {
	for _, p := range s.Points {
		if p.Label == label {
			return true
		}
	}
	return false
}

// TestDaemonObservability: under -timeline and -log-format json, the
// service's counters, the per-run metrics and timeline, the readiness
// document and the structured log all account for one simulated run and
// one cache hit.
func TestDaemonObservability(t *testing.T) {
	t.Parallel()
	store := t.TempDir()
	d := startDaemon(t, "-artifacts", store, "-timeline", "-log-format", "json")
	spec := bspSpec(t, 1)
	id := d.submitRun(t, spec, "miss").ID
	d.submitRun(t, spec, "hit")

	ms, err := results.DecodeMetricsJSON(bytes.NewReader(d.get(t, "/metrics?format=json")))
	if err != nil {
		t.Fatal(err)
	}
	if got := values(ms, "atlahs_service_cache_requests_total", "miss"); len(got) != 1 || got[0] != 1 {
		t.Errorf("cache misses %v, want [1]", got)
	}
	if got := values(ms, "atlahs_service_cache_requests_total", "lookaside"); len(got) != 1 || got[0] < 1 {
		t.Errorf("lookaside hits %v, want one sample >= 1", got)
	}
	if got := values(ms, "atlahs_service_runs_total", "done"); len(got) != 1 || got[0] != 1 {
		t.Errorf("completed runs %v, want [1]", got)
	}
	prom := "\n" + string(d.get(t, "/metrics"))
	for _, line := range []string{
		`atlahs_service_cache_requests_total{result="miss"} 1`,
		`# TYPE atlahs_service_run_wall_seconds histogram`,
	} {
		if !strings.Contains(prom, "\n"+line+"\n") {
			t.Errorf("Prometheus text lacks the line %q", line)
		}
	}

	rm, err := results.DecodeMetricsJSON(bytes.NewReader(d.get(t, "/v1/runs/"+id+"/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	if got := values(rm, "atlahs_engine_events_total", ""); len(got) == 0 || got[0] <= 0 {
		t.Errorf("per-run engine events %v, want > 0", got)
	}
	var trace struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	decode(t, d.get(t, "/v1/runs/"+id+"/trace"), &trace)
	threads, events := 0, 0
	for _, ev := range trace.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			threads++
		case ev.Ph != "M":
			events++
		}
	}
	if trace.DisplayTimeUnit != "ns" || events == 0 || threads != 8 {
		t.Errorf("timeline: displayTimeUnit %q, %d events, %d thread names (want ns, > 0, one per rank: 8)", trace.DisplayTimeUnit, events, threads)
	}
	if fi, err := os.Stat(filepath.Join(store, "traces", id+".json")); err != nil || fi.Size() == 0 {
		t.Errorf("timeline not persisted under traces/: %v", err)
	}

	var health struct {
		OK         bool `json:"ok"`
		QueueDepth int  `json:"queue_depth"`
		Executors  struct {
			Busy int `json:"busy"`
			Idle int `json:"idle"`
		} `json:"executors"`
		Store struct {
			Configured bool `json:"configured"`
			Writable   bool `json:"writable"`
		} `json:"store"`
	}
	decode(t, d.get(t, "/v1/healthz"), &health)
	if !health.OK || health.QueueDepth != 0 || !health.Store.Configured || !health.Store.Writable || health.Executors.Busy+health.Executors.Idle < 1 {
		t.Errorf("healthz %+v", health)
	}

	d.stop(t)
	finished := 0
	sc := bufio.NewScanner(strings.NewReader(d.logText(t)))
	for sc.Scan() {
		var line struct {
			Msg string `json:"msg"`
			Run string `json:"run"`
		}
		decode(t, sc.Bytes(), &line)
		if line.Run == id && strings.Contains(line.Msg, "run finished") {
			finished++
		}
	}
	if finished != 1 {
		t.Errorf("JSON log has %d run-finished lines for %s, want 1:\n%s", finished, id, d.logText(t))
	}
}

// values returns the samples of the named metric child, in order.
func values(ms *results.MetricsSnapshot, name, label string) []float64 {
	var out []float64
	for _, m := range ms.Metrics {
		if m.Name == name && m.LabelValue == label {
			out = append(out, m.Value)
		}
	}
	return out
}

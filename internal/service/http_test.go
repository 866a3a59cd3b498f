package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"atlahs/internal/workload/micro"
	"atlahs/results"
	"atlahs/sim"
)

// testServer starts a service behind its HTTP handler.
func testServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := newService(t, cfg)
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	return svc, ts
}

// wireSpec marshals the canonical quick spec the HTTP tests submit.
func wireSpec(t *testing.T, tag int64) []byte {
	t.Helper()
	b, err := sim.MarshalSpec(sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "bsp", Ranks: 4, Bytes: 1024 + tag, Phases: 2}},
		Backend: "lgs"})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postSpec(t *testing.T, url string, body []byte) (*http.Response, runResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/runs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr runResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return resp, rr
}

// TestHTTPSubmitTwice is the in-process half of the cache contract
// internal/e2e drives against a real atlahsd, restart included: the first
// submission misses the cache and simulates; the identical second one is
// answered `Cache-Status: hit` with the same run id, a done status, and a
// byte-identical artifact.
func TestHTTPSubmitTwice(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1})
	spec := wireSpec(t, 1)

	resp1, rr1 := postSpec(t, ts.URL, spec)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d (%+v)", resp1.StatusCode, rr1)
	}
	if got := resp1.Header.Get("Cache-Status"); got != "miss" {
		t.Fatalf("first POST Cache-Status %q, want miss", got)
	}
	if rr1.Status != StatusDone || rr1.Cached || rr1.Result == nil || rr1.Result.Ops == 0 {
		t.Fatalf("first POST body %+v", rr1)
	}

	resp2, rr2 := postSpec(t, ts.URL, spec)
	if got := resp2.Header.Get("Cache-Status"); got != "hit" {
		t.Fatalf("second POST Cache-Status %q, want hit", got)
	}
	if !rr2.Cached || rr2.Status != StatusDone || rr2.ID != rr1.ID {
		t.Fatalf("second POST body %+v", rr2)
	}

	fetch := func() []byte {
		resp, err := http.Get(ts.URL + "/v1/runs/" + rr1.ID + "/artifact")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("artifact GET: %d", resp.StatusCode)
		}
		if got := resp.Header.Get("Cache-Status"); got != "hit" {
			t.Fatalf("artifact Cache-Status %q, want hit", got)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a1, a2 := fetch(), fetch()
	if !bytes.Equal(a1, a2) {
		t.Fatal("artifact not byte-stable across fetches")
	}
	sweep, err := results.DecodeJSON(bytes.NewReader(a1))
	if err != nil {
		t.Fatalf("artifact does not schema-validate: %v", err)
	}
	if sweep.Name != rr1.ID {
		t.Fatalf("artifact sweep %q, want %q", sweep.Name, rr1.ID)
	}
}

// TestArtifactEncodedOnce: a run's artifact is encoded once, by execute,
// and that one encoding is what GET /v1/runs/{id}/artifact serves, what
// the store holds as <id>.json, and what EncodeJSON writes for the run's
// sweep, byte for byte.
func TestArtifactEncodedOnce(t *testing.T) {
	svc, ts := testServer(t, Config{Jobs: 1, ArtifactDir: t.TempDir()})
	resp, rr := postSpec(t, ts.URL, wireSpec(t, 41))
	if resp.StatusCode != http.StatusOK || rr.Status != StatusDone {
		t.Fatalf("POST: %d (%+v)", resp.StatusCode, rr)
	}
	aresp, err := http.Get(ts.URL + "/v1/runs/" + rr.ID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(aresp.Body)
	aresp.Body.Close()
	if err != nil || aresp.StatusCode != http.StatusOK {
		t.Fatalf("artifact GET: %d, %v", aresp.StatusCode, err)
	}
	stored, err := os.ReadFile(svc.store.Path(rr.ID))
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := svc.Get(rr.ID)
	if !ok || snap.Result == nil {
		t.Fatalf("run %s has no result: %+v", rr.ID, snap)
	}
	var want bytes.Buffer
	if err := results.EncodeJSON(&want, runSweep(rr.ID, snap.Result)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want.Bytes()) {
		t.Fatalf("served artifact differs from EncodeJSON of the run's sweep:\n%s\nvs\n%s", served, want.Bytes())
	}
	if !bytes.Equal(stored, want.Bytes()) {
		t.Fatalf("stored artifact differs from EncodeJSON of the run's sweep:\n%s\nvs\n%s", stored, want.Bytes())
	}
}

// TestHTTPSubmitModelTwice: a model-sourced spec is content-addressed by
// its generated schedule, so resubmitting the same (model, ranks, seed)
// answers from the cache like any other workload source.
func TestHTTPSubmitModelTwice(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1})
	model, err := sim.MineModel(micro.BulkSynchronous(8, 2, 2048, 900), "service-test")
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := results.EncodeModelJSON(&doc, model); err != nil {
		t.Fatal(err)
	}
	spec, err := sim.MarshalSpec(sim.Spec{
		Workload: sim.Workload{Model: &sim.ModelGen{Ranks: 64, Seed: 5, Doc: doc.Bytes()}},
		Backend:  "lgs",
	})
	if err != nil {
		t.Fatal(err)
	}

	resp1, rr1 := postSpec(t, ts.URL, spec)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d (%+v)", resp1.StatusCode, rr1)
	}
	if got := resp1.Header.Get("Cache-Status"); got != "miss" {
		t.Fatalf("first POST Cache-Status %q, want miss", got)
	}
	if rr1.Status != StatusDone || rr1.Result == nil || rr1.Result.Ops == 0 || rr1.Result.Ranks != 64 {
		t.Fatalf("first POST body %+v", rr1)
	}

	resp2, rr2 := postSpec(t, ts.URL, spec)
	if got := resp2.Header.Get("Cache-Status"); got != "hit" {
		t.Fatalf("second POST Cache-Status %q, want hit", got)
	}
	if !rr2.Cached || rr2.ID != rr1.ID {
		t.Fatalf("second POST body %+v", rr2)
	}
}

func TestHTTPGetRun(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1})
	_, rr := postSpec(t, ts.URL, wireSpec(t, 2))

	resp, err := http.Get(ts.URL + "/v1/runs/" + rr.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET run: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Cache-Status"); got != "hit" {
		t.Fatalf("done run GET Cache-Status %q, want hit", got)
	}
	var got runResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.ID != rr.ID || got.Status != StatusDone || got.Cached {
		t.Fatalf("GET body %+v", got)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1})
	cases := []struct {
		name   string
		do     func() (*http.Response, error)
		status int
		want   string
	}{
		{"bad-spec", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader("not a spec"))
		}, http.StatusBadRequest, "decoding spec"},
		{"invalid-spec", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"schema":"atlahs.spec/v1"}`))
		}, http.StatusBadRequest, "no workload"},
		// Each of the next three once validated and then panicked the
		// admission goroutine or allocated until the daemon died.
		{"unheld-bytes", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"schema":"atlahs.spec/v1","synthetic":{"pattern":"ring","ranks":4,"bytes":-1}}`))
		}, http.StatusBadRequest, "Bytes in"},
		{"too-many-ranks", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"schema":"atlahs.spec/v1","synthetic":{"pattern":"incast","ranks":1073741824,"bytes":64}}`))
		}, http.StatusBadRequest, "Ranks in"},
		{"too-many-ops", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"schema":"atlahs.spec/v1","synthetic":{"pattern":"alltoall","ranks":100000,"bytes":64}}`))
		}, http.StatusBadRequest, "more than 67108864 ops"},
		{"unknown-run", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/runs/r_0000000000000000")
		}, http.StatusNotFound, "unknown run"},
		{"unknown-artifact", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/runs/r_0000000000000000/artifact")
		}, http.StatusNotFound, "unknown run"},
		{"unknown-events", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/runs/r_0000000000000000/events")
		}, http.StatusNotFound, "unknown run"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := c.do()
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.status)
			}
			var er errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(er.Error, c.want) {
				t.Fatalf("error %q, want it to contain %q", er.Error, c.want)
			}
		})
	}
}

// TestHTTPRefusesUnprintableSubmitter: net/http admits a tab and bytes
// >= 0x80 in a header value, and the admission class becomes a /metrics
// label value, which the text format cannot escape past backslash, quote
// and newline. Both submit endpoints answer such an X-Submitter 400 and
// admit nothing; a printable non-ASCII submitter is accepted.
func TestHTTPRefusesUnprintableSubmitter(t *testing.T) {
	svc, ts := testServer(t, Config{Jobs: 1})
	post := func(path, submitter string, body []byte) (int, string) {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Submitter", submitter)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er.Error
	}
	sweep := []byte(`{"schema":"atlahs.sweep/v1","specs":[` + string(wireSpec(t, 7)) + `]}`)
	for _, submitter := range []string{"a\tb", "a\xffb"} {
		for path, body := range map[string][]byte{"/v1/runs": wireSpec(t, 7), "/v1/sweeps": sweep} {
			if code, msg := post(path, submitter, body); code != http.StatusBadRequest || !strings.Contains(msg, "X-Submitter") {
				t.Fatalf("POST %s as %q: %d %q, want 400 naming X-Submitter", path, submitter, code, msg)
			}
		}
	}
	svc.mu.Lock()
	admitted := len(svc.runs)
	svc.mu.Unlock()
	if admitted != 0 {
		t.Fatalf("refused submissions admitted %d runs", admitted)
	}
	if code, msg := post("/v1/runs?wait=1", "équipe α", wireSpec(t, 7)); code != http.StatusOK {
		t.Fatalf("printable UTF-8 submitter: %d %q", code, msg)
	}
}

// TestHTTPEventsSSE: the events endpoint streams SSE frames and ends with
// the terminal event — for a finished run it replays it immediately.
func TestHTTPEventsSSE(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1})
	_, rr := postSpec(t, ts.URL, wireSpec(t, 3))

	resp, err := http.Get(ts.URL + "/v1/runs/" + rr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body) // the stream closes after the terminal event
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "event: done\n") {
		t.Fatalf("SSE stream misses the terminal frame:\n%s", text)
	}
	if !strings.Contains(text, `"runtime_ps"`) {
		t.Fatalf("terminal frame misses the result payload:\n%s", text)
	}
}

// TestHTTPGetWaitCacheStatus pins the Cache-Status verdict on GET
// /v1/runs/{id}: it is decided before any waiting, so a ?wait=1 request
// that watched the run finish reports miss — the answer required
// simulation work — while the next read of the now-finished run is a hit.
func TestHTTPGetWaitCacheStatus(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	h := NewHandler(svc)
	arrived := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodGet && wantWait(req) {
			select {
			case arrived <- struct{}{}:
			default:
			}
		}
		h.ServeHTTP(w, req)
	}))
	t.Cleanup(ts.Close)

	spec, err := sim.MarshalSpec(sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "bsp", Ranks: 4, Bytes: 9000, Phases: 2}},
		Backend: "gatesim"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var rr runResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d (%+v)", resp.StatusCode, rr)
	}
	// The run is now inside the gated factory: it cannot finish until
	// gateRelease, which fires only once the waiting GET has arrived.
	<-gateEntered
	go func() {
		<-arrived
		time.Sleep(50 * time.Millisecond) // let the GET reach the handler's snapshot
		gateRelease <- struct{}{}
	}()
	resp, err = http.Get(ts.URL + "/v1/runs/" + rr.ID + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	var waited runResponse
	if err := json.NewDecoder(resp.Body).Decode(&waited); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || waited.Status != StatusDone {
		t.Fatalf("waited GET: %d (%+v)", resp.StatusCode, waited)
	}
	if got := resp.Header.Get("Cache-Status"); got != "miss" {
		t.Fatalf("a GET that watched the run finish reported Cache-Status %q, want miss", got)
	}

	resp, err = http.Get(ts.URL + "/v1/runs/" + rr.ID + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Cache-Status"); got != "hit" {
		t.Fatalf("a GET of the finished run reported Cache-Status %q, want hit", got)
	}
}

// TestHTTPSubmitWaitClientGone: a ?wait=1 submission whose client
// disconnects mid-run still admits the run and answers 202 with the
// non-terminal snapshot — the wait degrades, the submission does not.
func TestHTTPSubmitWaitClientGone(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	h := NewHandler(svc)
	body, err := sim.MarshalSpec(sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: 9100}},
		Backend: "blocksim"})
	if err != nil {
		t.Fatal(err)
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone when the wait starts
	req := httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body)).WithContext(gone)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("disconnected ?wait=1 submit: %d, want 202\n%s", rec.Code, rec.Body.String())
	}
	var rr runResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status.Terminal() {
		t.Fatalf("disconnected wait claimed a terminal run: %+v", rr)
	}
	if got := rec.Header().Get("Cache-Status"); got != "miss" {
		t.Fatalf("Cache-Status %q, want miss", got)
	}
	blockGate <- struct{}{}
	ctx, cancelLive := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelLive()
	done, err := svc.Wait(ctx, rr.ID)
	if err != nil || done.Status != StatusDone {
		t.Fatalf("abandoned run did not finish: (%+v, %v)", done, err)
	}
}

// TestHTTPRetryAfter: 503 responses — full queue on runs and sweeps —
// carry a Retry-After header and a JSON error body.
func TestHTTPRetryAfter(t *testing.T) {
	svc, ts := testServer(t, Config{Jobs: 1, Queue: 1})
	blockSpec := func(tag int64) []byte {
		t.Helper()
		b, err := sim.MarshalSpec(sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: tag}},
			Backend: "blocksim"})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	post := func(body []byte) (*http.Response, runResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr runResponse
		json.NewDecoder(resp.Body).Decode(&rr)
		return resp, rr
	}
	_, hold := post(blockSpec(9200))
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, _ := svc.Get(hold.ID)
		if snap.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("holding job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _ := post(blockSpec(9201)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: %d", resp.StatusCode)
	}

	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(blockSpec(9202)))
	if err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overfull submit: %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Fatal("503 without a Retry-After header")
	}
	if !strings.Contains(er.Error, "queue is full") {
		t.Fatalf("503 body %q does not carry the queue error", er.Error)
	}

	// A sweep that does not fit is the same 503 contract.
	payload := []byte(`{"schema":"atlahs.sweep/v1","specs":[` +
		string(wireSpec(t, 9203)) + `,` + string(wireSpec(t, 9204)) + `]}`)
	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overfull sweep: %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Fatal("sweep 503 without a Retry-After header")
	}

	blockGate <- struct{}{}
	blockGate <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := svc.Wait(ctx, hold.ID); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPSweeps drives the batch API end to end: submit-and-wait with an
// in-batch duplicate, the combined status view, the combined artifact
// document, and a fully-cached re-submission answered `Cache-Status: hit`.
func TestHTTPSweeps(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 2})
	payload := []byte(`{"schema":"atlahs.sweep/v1","specs":[` +
		string(wireSpec(t, 9300)) + `,` + string(wireSpec(t, 9301)) + `,` + string(wireSpec(t, 9300)) + `]}`)
	postSweep := func() (*http.Response, sweepResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sweeps?wait=1", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr sweepResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return resp, sr
	}

	resp, sr := postSweep()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep submit: %d (%+v)", resp.StatusCode, sr)
	}
	if got := resp.Header.Get("Cache-Status"); got != "miss" {
		t.Fatalf("first sweep Cache-Status %q, want miss", got)
	}
	if sr.Specs != 3 || sr.Total != 2 || sr.Done != 2 || sr.Failed != 0 || len(sr.Runs) != 2 {
		t.Fatalf("first sweep body %+v", sr)
	}

	resp2, sr2 := postSweep()
	if got := resp2.Header.Get("Cache-Status"); got != "hit" {
		t.Fatalf("re-submitted sweep Cache-Status %q, want hit", got)
	}
	if sr2.ID != sr.ID || sr2.Cached != 2 || sr2.Done != 2 {
		t.Fatalf("re-submitted sweep body %+v", sr2)
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	var view sweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || view.Done != 2 || view.Specs != 3 {
		t.Fatalf("sweep GET: %d (%+v)", resp.StatusCode, view)
	}
	if got := resp.Header.Get("Cache-Status"); got != "hit" {
		t.Fatalf("finished sweep GET Cache-Status %q, want hit", got)
	}

	resp, err = http.Get(ts.URL + "/v1/sweeps/" + sr.ID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	var combined sweepArtifactResponse
	if err := json.NewDecoder(resp.Body).Decode(&combined); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep artifact GET: %d", resp.StatusCode)
	}
	if combined.Schema != SweepSetSchema || combined.ID != sr.ID || len(combined.Runs) != 2 {
		t.Fatalf("combined artifact %+v", combined)
	}
	for _, rr := range sr.Runs {
		raw, ok := combined.Runs[rr.ID]
		if !ok {
			t.Fatalf("combined artifact misses run %s", rr.ID)
		}
		member, err := results.DecodeJSON(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("combined artifact entry %s does not schema-validate: %v", rr.ID, err)
		}
		aresp, err := http.Get(ts.URL + "/v1/runs/" + rr.ID + "/artifact")
		if err != nil {
			t.Fatal(err)
		}
		single, err := results.DecodeJSON(aresp.Body)
		aresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(member, single) {
			t.Fatalf("combined artifact entry %s differs from the run's own artifact", rr.ID)
		}
	}

	for _, c := range []struct {
		name   string
		do     func() (*http.Response, error)
		status int
		want   string
	}{
		{"bad-schema", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/sweeps", "application/json",
				strings.NewReader(`{"schema":"nope","specs":[]}`))
		}, http.StatusBadRequest, "unknown sweep schema"},
		{"bad-member", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/sweeps", "application/json",
				strings.NewReader(`{"schema":"atlahs.sweep/v1","specs":[`+string(wireSpec(t, 9302))+`,{"schema":"nope"}]}`))
		}, http.StatusBadRequest, "sweep spec 1"},
		{"empty", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/sweeps", "application/json",
				strings.NewReader(`{"schema":"atlahs.sweep/v1","specs":[]}`))
		}, http.StatusBadRequest, "at least one spec"},
		{"unknown-sweep", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/sweeps/b_0000000000000000")
		}, http.StatusNotFound, "unknown sweep"},
		{"unknown-sweep-artifact", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/sweeps/b_0000000000000000/artifact")
		}, http.StatusNotFound, "unknown sweep"},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp, err := c.do()
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.status)
			}
			var er errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(er.Error, c.want) {
				t.Fatalf("error %q, want it to contain %q", er.Error, c.want)
			}
		})
	}
}

// TestHTTPSweepRejectsMalformedDocuments: POST /v1/sweeps answers 400,
// naming the sweep document, to every body that is not exactly one valid
// atlahs.sweep/v1 document.
func TestHTTPSweepRejectsMalformedDocuments(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1})
	good := "{\n  \"schema\": \"atlahs.sweep/v1\",\n  \"specs\": [" + string(wireSpec(t, 9400)) + "]\n}\n"
	cases := map[string]string{
		"wrong schema":         strings.Replace(good, `"atlahs.sweep/v1"`, `"atlahs.other/v9"`, 1),
		"missing schema":       strings.Replace(good, `"schema": "atlahs.sweep/v1",`, "", 1),
		"unknown field":        strings.Replace(good, "{", `{"bogus": 1,`, 1),
		"unknown nested field": strings.Replace(good, `"synthetic": {`, `"synthetic": {"bogus": 1,`, 1),
		"trailing garbage":     good + "garbage",
		"trailing brace":       good + "}",
		"two documents":        good + good,
		"empty input":          "",
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			if body == good {
				t.Fatal("the rewrite did not apply")
			}
			resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var er errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, "sweep") {
				t.Fatalf("%d %q, want 400 naming the sweep", resp.StatusCode, er.Error)
			}
		})
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps?wait=1", "application/json", strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("the valid sweep: %d", resp.StatusCode)
	}
}

// TestHTTPOutOfRangeGoalFailsTheRunNotTheDaemon: a ~100-byte GOAL spec
// whose one op overflows the simulated clock used to panic inside the
// engine, and nothing on the run path recovers — one request ended the
// process. It must come back as a failed run, on every backend, and the
// next request must be served. A message over 1 TiB is refused with the
// request (400): GOAL's decoder does not read it.
func TestHTTPOutOfRangeGoalFailsTheRunNotTheDaemon(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1})
	for _, tc := range []struct {
		text, want string
		status     int
	}{
		{"num_ranks 2\nrank 0 {\nl1: send 51240955760304320b to 1 tag 0\n}\nrank 1 {\nl1: recv 51240955760304320b from 0 tag 0\n}\n",
			"send size 51240955760304320 exceeds the 1099511627776-byte message bound", http.StatusBadRequest},
		{"num_ranks 1\nrank 0 {\nl1: calc 9223372036854775807\n}\n", "sched: ", http.StatusOK},
	} {
		for _, be := range []string{"lgs", "pkt", "fluid"} {
			spec := sim.Spec{Workload: sim.Workload{GoalBytes: []byte(tc.text)}, Backend: be}
			if be == "lgs" {
				spec.Config = sim.LGSConfig{Params: sim.HPCParams()}
			}
			body, err := sim.MarshalSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			resp, rr := postSpec(t, ts.URL, body)
			if resp.StatusCode != tc.status || rr.Status == StatusDone || !strings.Contains(rr.Error, tc.want) {
				t.Fatalf("%s: out-of-range op answered %d %+v, want %d and an error carrying %q", be, resp.StatusCode, rr, tc.status, tc.want)
			}
			if tc.status == http.StatusOK && rr.Status != StatusFailed {
				t.Fatalf("%s: out-of-range op answered %+v, want a failed run", be, rr)
			}
		}
	}
	if resp, rr := postSpec(t, ts.URL, wireSpec(t, 7)); resp.StatusCode != http.StatusOK || rr.Status != StatusDone {
		t.Fatalf("request after the failed runs: %d %+v", resp.StatusCode, rr)
	}
}

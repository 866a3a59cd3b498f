package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"atlahs/sim"
)

// settled fails the test unless runtime.NumGoroutine() comes back to at
// most base within five seconds, printing every goroutine if it does not.
func settled(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: %d goroutines 5 s later, %d before:\n%s", what, n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gatedServer starts a service behind a real HTTP server and a client of
// its own, submits a gatesim run, and returns once the run is executing —
// held in its backend factory until release — with the goroutine count
// from before the submission.
func gatedServer(t *testing.T, tag int64, wait bool) (svc *Service, ts *httptest.Server, client *http.Client, id string, base int) {
	t.Helper()
	svc = newService(t, Config{Jobs: 1})
	ts = httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	// a failing test stops before it releases the run; shutting down would
	// then wait on it forever
	t.Cleanup(func() {
		if !released {
			gateRelease <- struct{}{}
		}
	})
	released = false
	client = &http.Client{Transport: &http.Transport{}}
	body, err := sim.MarshalSpec(sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: tag}},
		Backend: "gatesim"})
	if err != nil {
		t.Fatal(err)
	}
	id = specRunID(t, sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: tag}}, Backend: "gatesim"})
	base = runtime.NumGoroutine()
	if !wait {
		resp, err := client.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		client.CloseIdleConnections()
		<-gateEntered
		return svc, ts, client, id, base
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/runs?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-gateEntered // admitted and executing: the handler is waiting on it
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("a cancelled ?wait=1 request got a response")
	}
	return svc, ts, client, id, base
}

// released records that the current test's gated run was let go.
var released bool

// release lets the gated run finish and waits for it.
func release(t *testing.T, svc *Service, id string) {
	t.Helper()
	released = true
	gateRelease <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if snap, err := svc.Wait(ctx, id); err != nil || snap.Status != StatusDone {
		t.Fatalf("gated run: (%+v, %v)", snap, err)
	}
}

// TestNoGoroutineLeakOnWaitDisconnect: a client that hangs up on a
// ?wait=1 submission leaves nothing behind — its handler stops waiting
// while the run is still executing, and the run then finishes.
func TestNoGoroutineLeakOnWaitDisconnect(t *testing.T) {
	svc, _, client, id, base := gatedServer(t, 9301, true)
	client.CloseIdleConnections()
	settled(t, "after a ?wait=1 client disconnected from a live run", base)
	release(t, svc, id)
	settled(t, "after the abandoned run finished", base)
}

// TestNoGoroutineLeakOnEventsDisconnect: a client that hangs up on a
// live run's SSE stream detaches its subscription, and its handler and
// the handler's watcher goroutine end, before the run does.
func TestNoGoroutineLeakOnEventsDisconnect(t *testing.T) {
	svc, ts, client, id, base := gatedServer(t, 9302, false)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req) // headers are flushed before the first event
	if err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	r := svc.runs[id]
	svc.mu.Unlock()
	if n := r.nsubs.Load(); n != 1 {
		t.Fatalf("%d subscribers on the live run, want 1", n)
	}
	cancel()
	resp.Body.Close()
	client.CloseIdleConnections()
	settled(t, "after an SSE client disconnected from a live run", base)
	if n := r.nsubs.Load(); n != 0 {
		t.Fatalf("%d subscribers left after the client went away", n)
	}
	release(t, svc, id)
}

// TestNoGoroutineLeakOnCloseWithQueuedRuns: Close with a run executing
// and more queued cancels the one, fails the rest, and stops every
// goroutine the service started.
func TestNoGoroutineLeakOnCloseWithQueuedRuns(t *testing.T) {
	base := runtime.NumGoroutine()
	svc, err := New(Config{Jobs: 1, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for tag := range int64(6) {
		// big enough that Close finds the first one running and the rest
		// queued
		snap, err := svc.Submit(sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "alltoall", Ranks: 96, Bytes: 4096 + tag}},
			Backend: "countsim"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	if _, err := svc.Submit(sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: 1}}, Backend: "countsim"}); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	failed := 0
	for _, id := range ids {
		snap, ok := svc.Get(id)
		if !ok || !snap.Status.Terminal() {
			t.Fatalf("run %s not terminal after Close: %+v", id, snap)
		}
		if snap.Status == StatusFailed {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("Close found no run queued or running: the test's runs are too small")
	}
	settled(t, "after Close with queued runs", base)
}

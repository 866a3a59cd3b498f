package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"atlahs/sim"
)

// allocSpec is the i-th of the distinct small synthetic specs the
// allocation gate submits: ten shapes of 16 to 61 ranks over five
// patterns, on lgs, told apart by their message size.
func allocSpec(t *testing.T, i int) []byte {
	t.Helper()
	sy := &sim.Synthetic{Ranks: 16 + i%10*5, Bytes: 70000 + 16*int64(i)}
	switch i % 5 {
	case 0:
		sy.Pattern = "ring"
	case 1:
		sy.Pattern = "alltoall"
	case 2:
		sy.Pattern = "permutation"
	case 3:
		sy.Pattern, sy.Msgs = "uniform", 24
	case 4:
		sy.Pattern, sy.Phases = "bsp", 2
	}
	b, err := sim.MarshalSpec(sim.Spec{Workload: sim.Workload{Synthetic: sy}, Backend: "lgs"})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRequestAllocation holds what a warm service request allocates, over
// HTTP handling without a socket: cold submissions of distinct small
// synthetic specs, each followed by its re-submission, which the
// look-aside key answers. A cold request allocates its resolved schedule,
// its run's result and its one artifact, and what decoding the spec,
// keying it and writing the artifact's sidecar cost. It measured 46.9 kB
// per request on average (over 60 requests, the harness's request and
// recorder included) with a 168-byte RankBuilder per rank, the sidecar
// rendered by json.MarshalIndent and the spec's strict decoder refilling
// its buffer for the trailing-data check; 38.2 to 39.2 kB (GOMAXPROCS 1
// to 16, on 2 cores) with a 32-byte handle, the kept document encoder and
// the check made on the spec's bytes; 34.3 to 35.0 kB with a re-submission
// probed by its bytes, the look-aside key hashed as it is encoded, the body
// read at its length and the artifact rendered from a kept sweep.
func TestRequestAllocation(t *testing.T) {
	const warm, measured = 20, 30
	svc := newService(t, Config{Jobs: 1, ArtifactDir: t.TempDir()})
	h := NewHandler(svc)
	post := func(body []byte, want string) {
		if code, status := postRun(h, body); code != http.StatusOK || status != want {
			t.Fatalf("submit: %d, Cache-Status %q, want %q", code, status, want)
		}
	}
	bodies := make([][]byte, warm+measured)
	for i := range bodies {
		bodies[i] = allocSpec(t, i)
	}
	for _, b := range bodies[:warm] {
		post(b, "miss")
		post(b, "hit")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range bodies[warm:] {
		post(b, "miss")
		post(b, "hit")
	}
	runtime.ReadMemStats(&after)
	perRequest := float64(after.TotalAlloc-before.TotalAlloc) / (2 * measured)
	t.Logf("%.0f bytes allocated per request over %d requests", perRequest, 2*measured)
	if !raceEnabled && perRequest > requestAllocCeiling {
		t.Errorf("a service request allocated %.0f bytes, ceiling %d", perRequest, requestAllocCeiling)
	}
}

// TestResubmissionAllocation holds what a re-submission allocates: the
// canonical bytes of specs the service has run, posted again, each
// answered from the look-aside index. A body that hashes to a filed key is
// neither decoded nor encoded again to be keyed, so a re-submission costs
// reading its body, the probe's snapshot and the response. It measured
// 10.8 kB and 55 allocations per request with each body decoded and its
// key re-encoded from the decoded spec; 7.73 to 7.79 kB and 31
// allocations (GOMAXPROCS 1 to 16, on 2 cores) with the body probed as it
// arrived. About 4 kB of it is httptest.NewRequest's reader.
func TestResubmissionAllocation(t *testing.T) {
	const specs, rounds = 30, 4
	svc := newService(t, Config{Jobs: 1})
	h := NewHandler(svc)
	bodies := make([][]byte, specs)
	for i := range bodies {
		bodies[i] = allocSpec(t, i)
		if code, status := postRun(h, bodies[i]); code != http.StatusOK || status != "miss" {
			t.Fatalf("cold submission: %d, Cache-Status %q", code, status)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		for _, b := range bodies {
			if code, status := postRun(h, b); code != http.StatusOK || status != "hit" {
				t.Fatalf("re-submission: %d, Cache-Status %q", code, status)
			}
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(specs * rounds)
	perRequest := float64(after.TotalAlloc-before.TotalAlloc) / n
	mallocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.0f bytes and %.1f allocations per re-submission over %.0f requests", perRequest, mallocs, n)
	if raceEnabled {
		return
	}
	if perRequest > resubmitAllocCeiling {
		t.Errorf("a re-submission allocated %.0f bytes, ceiling %d", perRequest, resubmitAllocCeiling)
	}
	if mallocs > resubmitMallocCeiling {
		t.Errorf("a re-submission made %.1f allocations, ceiling %d", mallocs, resubmitMallocCeiling)
	}
}

// postRun posts one spec body to POST /v1/runs?wait=1 without a socket and
// returns the status code and the Cache-Status header.
func postRun(h http.Handler, body []byte) (int, string) {
	rec := serve(h, httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body)))
	return rec.Code, rec.Header().Get("Cache-Status")
}

// resubmitAllocCeiling and resubmitMallocCeiling are
// TestResubmissionAllocation's bounds per request: above the readings at
// every GOMAXPROCS, below the 10.8 kB and 55 allocations of the costs they
// hold down.
const (
	resubmitAllocCeiling  = 8000
	resubmitMallocCeiling = 33
)

// requestAllocCeiling is TestRequestAllocation's bound in bytes per
// request: above the readings at every GOMAXPROCS, below the 38.2 kB of
// the costs it holds down.
const requestAllocCeiling = 35600

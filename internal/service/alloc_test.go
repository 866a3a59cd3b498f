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
// the check made on the spec's bytes.
func TestRequestAllocation(t *testing.T) {
	const warm, measured = 20, 30
	svc := newService(t, Config{Jobs: 1, ArtifactDir: t.TempDir()})
	h := NewHandler(svc)
	post := func(body []byte, want string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("submit: %d\n%s", rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("Cache-Status"); got != want {
			t.Fatalf("Cache-Status %q, want %q", got, want)
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

// requestAllocCeiling is TestRequestAllocation's bound in bytes per
// request: above the readings at every GOMAXPROCS, below the 46.9 kB of
// the costs it holds down.
const requestAllocCeiling = 40500

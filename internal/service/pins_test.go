package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"atlahs/sim"
)

// TestResultJSONPinned: WriteResultJSON, the `atlahs -json` output and
// the run response's "result" object, writes the pinned bytes for a
// result carrying every optional part (fabric counters, job node sets).
func TestResultJSONPinned(t *testing.T) {
	res := &sim.Result{
		Runtime:  254663000,
		RankEnd:  []sim.Time{254000000, 254663000, 1000, 0},
		Ops:      42,
		Events:   97,
		Backend:  "pkt",
		Ranks:    4,
		Sched:    sim.ScheduleStats{Ops: 42, Sends: 12, Recvs: 12, Calcs: 18, SendBytes: 49152, DepEdges: 30},
		Done:     sim.Tally{Calcs: 18, Sends: 12, Recvs: 12},
		JobNodes: [][]int{{0, 2}, {1, 3}},
		Net:      &sim.NetStats{PktsSent: 120, Drops: 3, Trims: 1, Retransmits: 4},
		Workers:  1,
	}
	var buf bytes.Buffer
	if err := WriteResultJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	const pin = "8957b3023e66c9499654444f23edf1a10e46fa00f286d3e3863260dc1978b21c"
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != pin {
		t.Errorf("result JSON SHA-256 %x, pinned %s; bytes:\n%s", sum, pin, buf.Bytes())
	}
}

// TestSweepArtifactPinned: GET /v1/sweeps/{id}/artifact, the
// atlahs.sweepset/v1 document, writes the pinned bytes for a sweep of two
// runs.
func TestSweepArtifactPinned(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1})
	payload := []byte(`{"schema":"atlahs.sweep/v1","specs":[` +
		string(wireSpec(t, 9400)) + `,` + string(wireSpec(t, 9401)) + `]}`)
	resp, err := http.Post(ts.URL+"/v1/sweeps?wait=1", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var sr sweepResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || sr.Done != 2 {
		t.Fatalf("sweep submit: %d, %v (%+v)", resp.StatusCode, err, sr)
	}
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + sr.ID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep artifact GET: %d, %v", resp.StatusCode, err)
	}
	const pin = "cb01427521351e179e1df36416c2a5f130ff526df52df6d118cb988562fefa8e"
	if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != pin {
		t.Errorf("sweepset SHA-256 %x, pinned %s; bytes:\n%s", sum, pin, body)
	}
}

// TestComposedRunArtifactPinned: GET /v1/runs/{id}/artifact, the
// atlahs.results/v1 sweep of one run, writes the pinned bytes for a
// composed run of two jobs (the artifact's "jobs" param is set).
func TestComposedRunArtifactPinned(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1})
	spec, err := sim.MarshalSpec(sim.Spec{Jobs: []sim.JobSpec{
		{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: 4096}}},
		{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "bsp", Ranks: 2, Bytes: 2048, Phases: 2}}},
	}, Backend: "lgs"})
	if err != nil {
		t.Fatal(err)
	}
	resp, rr := postSpec(t, ts.URL, spec)
	if resp.StatusCode != http.StatusOK || rr.Status != StatusDone {
		t.Fatalf("two-job submit: %d, %+v", resp.StatusCode, rr)
	}
	resp, err = http.Get(ts.URL + "/v1/runs/" + rr.ID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("run artifact GET: %d, %v", resp.StatusCode, err)
	}
	if !bytes.Contains(body, []byte(`"jobs"`)) {
		t.Fatalf("composed run artifact carries no jobs param:\n%s", body)
	}
	const pin = "df6c54ab4a5f94b98ada1c5bf1a7d830787606a23f31205d1f483f4d7c667594"
	if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != pin {
		t.Errorf("run artifact SHA-256 %x, pinned %s; bytes:\n%s", sum, pin, body)
	}
}

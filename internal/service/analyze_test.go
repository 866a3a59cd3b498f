package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"atlahs/internal/analyze"
	"atlahs/results"
)

// getJSON fetches one URL and decodes its JSON body into v.
func getJSON(t *testing.T, url string, status int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d (want %d): %s", url, resp.StatusCode, status, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPHistory(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1})
	// Two distinct specs complete in submission order.
	_, rr1 := postSpec(t, ts.URL, wireSpec(t, 1))
	_, rr2 := postSpec(t, ts.URL, wireSpec(t, 2))
	if rr1.Status != StatusDone || rr2.Status != StatusDone {
		t.Fatalf("runs not done: %+v %+v", rr1, rr2)
	}

	var hist analyze.History
	getJSON(t, ts.URL+"/v1/history", http.StatusOK, &hist)
	if hist.Schema != "atlahs.history/v1" {
		t.Errorf("schema = %q", hist.Schema)
	}
	byMetric := map[string][]results.Point{}
	for _, s := range hist.Series {
		byMetric[s.Metric] = s.Points
	}
	pts, ok := byMetric["runtime_ps"]
	if !ok || len(pts) != 2 {
		t.Fatalf("runtime_ps series = %+v, want two points", byMetric)
	}
	if pts[0].Label != rr1.ID || pts[1].Label != rr2.ID {
		t.Errorf("labels = %q %q, want completion order %q %q", pts[0].Label, pts[1].Label, rr1.ID, rr2.ID)
	}

	// ?metric= filters series; a bad pattern is a 400.
	var filtered analyze.History
	getJSON(t, ts.URL+"/v1/history?metric=%5Eops%24", http.StatusOK, &filtered)
	if len(filtered.Series) != 1 || filtered.Series[0].Metric != "ops" {
		t.Errorf("filtered series = %+v, want just ops", filtered.Series)
	}
	var bad errorResponse
	getJSON(t, ts.URL+"/v1/history?metric=%28", http.StatusBadRequest, &bad)

	// ?format=html renders the report.
	resp, err := http.Get(ts.URL + "/v1/history?format=html")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(string(body), "runtime_ps") {
		t.Errorf("HTML report missing runtime_ps:\n%s", body)
	}
}

func TestHTTPHistoryFromStore(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, Config{Jobs: 1, ArtifactDir: dir})
	_, rr := postSpec(t, ts.URL, wireSpec(t, 1))

	var hist analyze.History
	getJSON(t, ts.URL+"/v1/history", http.StatusOK, &hist)
	found := false
	for _, s := range hist.Series {
		if s.Metric == "runtime_ps" && len(s.Points) == 1 && s.Points[0].Label == rr.ID {
			found = true
			if s.Points[0].Unix == 0 {
				t.Error("store-backed history point has no timestamp")
			}
		}
	}
	if !found {
		t.Errorf("store-backed history = %+v, want a runtime_ps point for %s", hist.Series, rr.ID)
	}
}

func TestHTTPAnalyzeDiff(t *testing.T) {
	_, ts := testServer(t, Config{Jobs: 1})
	_, rr1 := postSpec(t, ts.URL, wireSpec(t, 1))
	_, rr2 := postSpec(t, ts.URL, wireSpec(t, 2)) // different bytes: runtime differs

	// A run against itself: no changes, not regressed.
	var same analyzeDiffResponse
	getJSON(t, ts.URL+"/v1/analyze/diff?a="+rr1.ID+"&b="+rr1.ID, http.StatusOK, &same)
	if same.Regressed || len(same.Regressions) != 0 {
		t.Errorf("self-diff regressed: %+v", same)
	}
	d, err := results.DecodeDiffJSON(strings.NewReader(string(same.Diff)))
	if err != nil {
		t.Fatalf("embedded diff does not decode: %v", err)
	}
	if d.Changed != 0 {
		t.Errorf("self-diff Changed = %d", d.Changed)
	}

	// Two different runs: the bigger payload takes longer, so with a zero
	// threshold the diff in one direction regresses.
	var fwd, rev analyzeDiffResponse
	getJSON(t, ts.URL+"/v1/analyze/diff?a="+rr1.ID+"&b="+rr2.ID+"&threshold=0", http.StatusOK, &fwd)
	getJSON(t, ts.URL+"/v1/analyze/diff?a="+rr2.ID+"&b="+rr1.ID+"&threshold=0", http.StatusOK, &rev)
	if fwd.Regressed == rev.Regressed {
		t.Errorf("exactly one direction should regress: fwd=%v rev=%v", fwd.Regressed, rev.Regressed)
	}

	// Errors: missing params, unknown run.
	var bad errorResponse
	getJSON(t, ts.URL+"/v1/analyze/diff", http.StatusBadRequest, &bad)
	getJSON(t, ts.URL+"/v1/analyze/diff?a="+rr1.ID+"&b=r_0000000000000000", http.StatusNotFound, &bad)
	getJSON(t, ts.URL+"/v1/analyze/diff?a="+rr1.ID+"&b="+rr1.ID+"&threshold=x", http.StatusBadRequest, &bad)

	// HTML rendering names the runs.
	resp, err := http.Get(ts.URL + "/v1/analyze/diff?a=" + rr1.ID + "&b=" + rr2.ID + "&format=html")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), rr1.ID) || !strings.Contains(string(body), rr2.ID) {
		t.Errorf("HTML diff report does not name the runs:\n%s", body)
	}
}

package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

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
	for _, threshold := range []string{"x", "NaN", "%2BInf", "-1"} {
		getJSON(t, ts.URL+"/v1/analyze/diff?a="+rr1.ID+"&b="+rr2.ID+"&threshold="+threshold, http.StatusBadRequest, &bad)
	}

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

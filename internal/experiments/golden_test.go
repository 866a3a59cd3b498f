package experiments

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"atlahs/results"
)

// wallRE matches host wall-clock tokens (time.Duration renderings like
// "813.154µs", "2.2ms", "1m2.3s") inside Fig 8's wall-clock table,
// without touching the digits of configuration labels ("Llama 7B DP8").
var wallRE = regexp.MustCompile(`(\d+(\.\d+)?(h|ms|m|s|µs|ns))+`)

// spaceRE collapses the column padding around normalized wall tokens.
var spaceRE = regexp.MustCompile(` +`)

// normalizeWallClock replaces the host-measured durations in Fig 8's
// "simulation wall-clock" section with a fixed token: they are
// measurements of the generating machine and legitimately vary run to
// run, while everything else in the report is simulated and pinned
// byte-for-byte.
func normalizeWallClock(s string) string {
	lines := strings.Split(s, "\n")
	inWall := false
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "simulation wall-clock"):
			inWall = true
		case inWall && line == "":
			inWall = false
		case inWall && !strings.HasPrefix(line, "configuration"):
			// Collapse the padding too: %12v column widths shift with the
			// rendered duration's length.
			lines[i] = spaceRE.ReplaceAllString(wallRE.ReplaceAllString(line, "WALL"), " ")
		}
	}
	return strings.Join(lines, "\n")
}

// TestQuickArtifacts is the golden + round-trip suite: for every
// experiment it computes the quick sweep once, then
//
//   - pins Render's text byte-identical to the pre-refactor CLI output
//     (testdata/golden/<name>.quick.txt, captured from the streamed
//     Fprintf implementation this Report API replaced), and
//   - validates the exported results.Sweep against the schema and pins
//     JSON and CSV encode→decode lossless.
func TestQuickArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-suite recomputation")
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			rep, err := compute(name, Quick, 1)
			if err != nil {
				t.Fatal(err)
			}

			var buf bytes.Buffer
			rep.Render(&buf)
			got := buf.String()
			goldenPath := filepath.Join("testdata", "golden", name+".quick.txt")
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			gotCmp, wantCmp := got, string(want)
			if name == "fig8" {
				gotCmp, wantCmp = normalizeWallClock(gotCmp), normalizeWallClock(wantCmp)
			}
			if gotCmp != wantCmp {
				t.Errorf("rendered text diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", goldenPath, gotCmp, wantCmp)
			}

			sweep := rep.Sweep()
			if sweep.Name != name {
				t.Errorf("sweep name %q, want %q", sweep.Name, name)
			}
			if sweep.Mode != "quick" {
				t.Errorf("sweep mode %q, want quick", sweep.Mode)
			}
			if len(sweep.Rows) == 0 {
				t.Fatal("sweep has no rows")
			}
			if err := sweep.Validate(); err != nil {
				t.Fatalf("sweep invalid: %v", err)
			}

			var js bytes.Buffer
			if err := results.EncodeJSON(&js, sweep); err != nil {
				t.Fatal(err)
			}
			fromJSON, err := results.DecodeJSON(&js)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fromJSON, sweep) {
				t.Errorf("JSON round trip diverged:\ngot  %#v\nwant %#v", fromJSON, sweep)
			}

			if err := results.EncodeCSV(io.Discard, sweep); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// fullGoldens names the experiments whose Full-mode text is pinned too:
// the ones whose reports print no wall-clock column and compute in well
// under a second.
var fullGoldens = []string{"fig1c", "fig11", "fig12", "fig13"}

// TestFullArtifacts pins Render's Full-mode text byte-identical to
// testdata/golden/<name>.full.txt, so a change to the layers these figures
// run on is checked at the sizes the paper comparison uses, not only at
// Quick's.
func TestFullArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-mode recomputation")
	}
	for _, name := range fullGoldens {
		t.Run(name, func(t *testing.T) {
			rep, err := compute(name, Full, 1)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			rep.Render(&buf)
			goldenPath := filepath.Join("testdata", "golden", name+".full.txt")
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("rendered text diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// TestNormalizeWallClock pins the golden comparison's one escape hatch: it
// must rewrite only the wall-clock table's duration tokens, leaving the
// simulated tables alone.
func TestNormalizeWallClock(t *testing.T) {
	in := strings.Join([]string{
		"cfg                  254.663us   79.6%",
		"",
		"simulation wall-clock (paper §5.2: ...):",
		"configuration        LGS          pkt        astra",
		"cfg                  813.154µs   2.217598ms   3.846685ms",
		"Llama 7B TP1 DP8     1m2.5s      919.801µs n/a (failed)",
		"",
		"paper: ATLAHS errors stay within ~5%; more text 27% / 125.5%.",
	}, "\n")
	want := strings.Join([]string{
		"cfg                  254.663us   79.6%",
		"",
		"simulation wall-clock (paper §5.2: ...):",
		"configuration        LGS          pkt        astra",
		"cfg WALL WALL WALL",
		"Llama 7B TP1 DP8 WALL WALL n/a (failed)",
		"",
		"paper: ATLAHS errors stay within ~5%; more text 27% / 125.5%.",
	}, "\n")
	if got := normalizeWallClock(in); got != want {
		t.Fatalf("normalizeWallClock:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRunAllPropagatesWriteErrors: a failing sink must fail the run — the
// historical implementation discarded Fprintf errors and reported success
// over a truncated report (the exit-0 bug internal/e2e checks against the
// real binary writing to /dev/full).
func TestRunAllPropagatesWriteErrors(t *testing.T) {
	sentinel := errors.New("sink full")
	err := RunAll(&failingWriter{failAfter: 64, err: sentinel}, Quick, 1, []string{"fig9"})
	if !errors.Is(err, sentinel) {
		t.Fatalf("RunAll over a failing writer returned %v, want the sink error", err)
	}
	if err == nil || !strings.Contains(err.Error(), "fig9") {
		t.Fatalf("error %q does not name the experiment", err)
	}
}

// failingWriter accepts failAfter bytes, then fails every write.
type failingWriter struct {
	failAfter int
	written   int
	err       error
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.failAfter {
		return 0, f.err
	}
	f.written += len(p)
	return len(p), nil
}

// TestReports: the structured counterpart of RunAll must return one
// report per requested experiment (every one when names is empty), in
// request order, with parallel computation changing nothing.
func TestReports(t *testing.T) {
	names := []string{"fig9", "fig1c"}
	reps, err := Reports(Quick, 2, names)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Reports(Quick, 1, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(names) || len(serial) != len(names) {
		t.Fatalf("got %d and %d reports, want %d", len(reps), len(serial), len(names))
	}
	for i, name := range names {
		if got := reps[i].Sweep().Name; got != name {
			t.Errorf("report %d sweep name %q, want %q", i, got, name)
		}
	}
	// fig9 is deterministic: the parallel report must equal the serial one.
	if !reflect.DeepEqual(reps[0].Sweep(), serial[0].Sweep()) {
		t.Error("fig9 sweep diverged between Reports(workers=2) and Reports(workers=1)")
	}
	if _, err := Reports(Quick, 1, []string{"fig99"}); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
	all, err := Reports(Quick, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Names()) {
		t.Fatalf("Reports(nil) returned %d reports, want %d", len(all), len(Names()))
	}
	for i, name := range Names() {
		if got := all[i].Sweep().Name; got != name {
			t.Errorf("Reports(nil)[%d] = %q, want %q", i, got, name)
		}
	}
}

// TestGoldenFilesPresent guards against golden files going missing
// silently (TestQuickArtifacts and TestFullArtifacts skip under -short,
// this does not).
func TestGoldenFilesPresent(t *testing.T) {
	files := make([]string, 0, len(Names())+len(fullGoldens))
	for _, name := range Names() {
		files = append(files, name+".quick.txt")
	}
	for _, name := range fullGoldens {
		files = append(files, name+".full.txt")
	}
	for _, file := range files {
		if _, err := os.Stat(filepath.Join("testdata", "golden", file)); err != nil {
			t.Errorf("missing golden file %s: %v", file, err)
		}
	}
}

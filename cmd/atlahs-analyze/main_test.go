package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atlahs/results"
)

// writeSweep saves a keyed artifact like the experiments exporter does.
func writeSweep(t *testing.T, path string, measured []int64) {
	t.Helper()
	s := results.NewSweep("fig8_quick", "Fig 8", "quick")
	s.AddColumn("configuration", results.String, "")
	s.AddColumn("measured", results.Duration, "ps")
	configs := []string{"cfg_a", "cfg_b", "cfg_c"}
	for i, m := range measured {
		s.MustAddRow(configs[i], m)
	}
	saveSweep(t, path, s)
}

// saveSweep writes s as an atlahs.results/v1 artifact at path.
func saveSweep(t *testing.T, path string, s *results.Sweep) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := results.EncodeJSON(f, s); err != nil {
		t.Fatal(err)
	}
}

func TestDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	same := filepath.Join(dir, "same.json")
	worse := filepath.Join(dir, "worse.json")
	writeSweep(t, base, []int64{100, 200, 300})
	writeSweep(t, same, []int64{100, 200, 300})
	writeSweep(t, worse, []int64{100, 240, 300}) // cfg_b +20%
	// Two valid artifacts whose float cell moves so far that the delta
	// overflows: every output mode refuses the diff alike.
	floatArtifact := func(name string, v float64) string {
		s := results.NewSweep("fig8_quick", "Fig 8", "quick")
		s.AddColumn("ratio", results.Float, "")
		s.MustAddRow(v)
		path := filepath.Join(dir, name)
		saveSweep(t, path, s)
		return path
	}
	tiny, subnormal, lowest := floatArtifact("tiny.json", 1e-310), floatArtifact("subnormal.json", 5e-324), floatArtifact("lowest.json", -1.7e308)
	one, two, highest := floatArtifact("one.json", 1), floatArtifact("two.json", 2), floatArtifact("highest.json", 1.7e308)
	report := filepath.Join(dir, "report.html")

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"relative overflow", []string{"diff", tiny, one}, 2},
		{"relative overflow json", []string{"diff", "-json", tiny, one}, 2},
		{"relative overflow html", []string{"diff", "-html", report, tiny, one}, 2},
		{"subnormal baseline", []string{"diff", subnormal, two}, 2},
		{"subnormal baseline json", []string{"diff", "-json", subnormal, two}, 2},
		{"subnormal baseline html", []string{"diff", "-html", report, subnormal, two}, 2},
		{"absolute overflow", []string{"diff", lowest, highest}, 2},
		{"absolute overflow json", []string{"diff", "-json", lowest, highest}, 2},
		{"absolute overflow html", []string{"diff", "-html", report, lowest, highest}, 2},
		{"identical", []string{"diff", "-keys", "configuration", base, same}, 0},
		{"regression", []string{"diff", "-keys", "configuration", base, worse}, 1},
		{"below threshold", []string{"diff", "-keys", "configuration", "-threshold", "0.5", base, worse}, 0},
		{"NaN threshold", []string{"diff", "-keys", "configuration", "-threshold", "NaN", base, worse}, 2},
		{"+Inf threshold", []string{"diff", "-keys", "configuration", "-threshold", "+Inf", base, worse}, 2},
		{"negative threshold", []string{"diff", "-keys", "configuration", "-threshold", "-1", base, worse}, 2},
		{"gate off", []string{"diff", "-keys", "configuration", "-gate=false", base, worse}, 0},
		{"positional identical", []string{"diff", base, same}, 0},
		{"json output", []string{"diff", "-json", "-keys", "configuration", base, worse}, 1},
		{"missing file", []string{"diff", base, filepath.Join(dir, "nope.json")}, 2},
		{"one arg", []string{"diff", base}, 2},
		{"bad keys", []string{"diff", "-keys", "nope", base, same}, 2},
		{"bad metrics", []string{"diff", "-metrics", "(", base, same}, 2},
		{"unknown subcommand", []string{"frobnicate"}, 2},
		{"no args", nil, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(tc.args); got != tc.want {
				t.Errorf("run(%v) = %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}

func TestDiffWritesHTMLReport(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	worse := filepath.Join(dir, "worse.json")
	writeSweep(t, base, []int64{100, 200, 300})
	writeSweep(t, worse, []int64{100, 240, 300})
	html := filepath.Join(dir, "report.html")

	if got := run([]string{"diff", "-keys", "configuration", "-html", html, base, worse}); got != 1 {
		t.Fatalf("exit = %d, want 1", got)
	}
	b, err := os.ReadFile(html)
	if err != nil {
		t.Fatal(err)
	}
	out := string(b)
	for _, want := range []string{"<!doctype html>", "regression(s) flagged", "cfg_b", "measured"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

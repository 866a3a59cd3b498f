package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"identical", []string{"diff", "-keys", "configuration", base, same}, 0},
		{"regression", []string{"diff", "-keys", "configuration", base, worse}, 1},
		{"below threshold", []string{"diff", "-keys", "configuration", "-threshold", "0.5", base, worse}, 0},
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

// stdoutOf runs one command line and returns what it printed on stdout.
func stdoutOf(t *testing.T, args ...string) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	code := run(args)
	os.Stdout = old
	if code != 0 {
		t.Fatalf("run(%v) = %d", args, code)
	}
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHistoryJSONPinned: `history -json` writes its atlahs.history/v1
// document byte for byte as pinned.
func TestHistoryJSONPinned(t *testing.T) {
	storeDir := t.TempDir()
	st, err := results.NewStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	for i, rt := range []float64{100, 150} {
		s := results.NewSweep("r_"+strings.Repeat("0", 15)+string(rune('a'+i)), "Run", "service")
		s.AddColumn("rank", results.Int, "")
		s.MustAddRow(int64(0))
		s.SetDerived("runtime_ps", rt)
		s.SetDerived("ops", 8)
		if err := st.Save(s); err != nil {
			t.Fatal(err)
		}
		at := time.Unix(1700000000+int64(i)*60, 0)
		if err := os.Chtimes(st.Path(s.Name), at, at); err != nil {
			t.Fatal(err)
		}
	}
	const pin = "8874237675b6e2ca1401992eb285dc2225245b5bee80a4140efa1527293cd1f5"
	if sum := sha256.Sum256(stdoutOf(t, "history", "-store", storeDir, "-json", "-gate=false")); hex.EncodeToString(sum[:]) != pin {
		t.Errorf("history -json: SHA-256 %x, pinned %s", sum, pin)
	}
	// A run the walk skips is reported in the document, as GET /v1/history
	// reports it.
	if err := os.WriteFile(st.Path("r_00000000000000ff"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := stdoutOf(t, "history", "-store", storeDir, "-json", "-gate=false"); !strings.Contains(string(out), `"warnings": [`) {
		t.Errorf("history -json over a corrupt artifact carries no warnings:\n%s", out)
	}
}

func TestHistorySubcommand(t *testing.T) {
	dir := t.TempDir()
	st, err := results.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, rt := range []float64{100, 100, 100, 150} {
		s := results.NewSweep("r_"+strings.Repeat("0", 15)+string(rune('a'+i)), "Run", "service")
		s.AddColumn("rank", results.Int, "")
		s.MustAddRow(int64(0))
		s.SetDerived("runtime_ps", rt)
		if err := st.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	// All four artifacts share an mtime granule; the name tiebreak keeps
	// them in save order, so the +50% last run trips the gate.
	if got := run([]string{"history", "-store", dir, "-threshold", "0.1"}); got != 1 {
		t.Errorf("regressed run history: exit = %d, want 1", got)
	}
	if got := run([]string{"history"}); got != 2 {
		t.Errorf("missing -store: exit = %d, want 2", got)
	}
	// A read-only command must not create the directory it was pointed at.
	typo := filepath.Join(t.TempDir(), "typo_dir")
	if got := run([]string{"history", "-store", typo}); got != 2 {
		t.Errorf("nonexistent -store: exit = %d, want 2", got)
	}
	if _, err := os.Stat(typo); !os.IsNotExist(err) {
		t.Errorf("nonexistent -store was created (stat: %v)", err)
	}
	if got := run([]string{"history", "-store", st.Path("r_000000000000000a")}); got != 2 {
		t.Errorf("-store naming a file: exit = %d, want 2", got)
	}
}

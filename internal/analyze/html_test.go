package analyze

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current renderer output")

// goldenReport exercises every section of the renderer with fixed data.
func goldenReport(t *testing.T) *Report {
	t.Helper()
	a := pairSweep(t, "fig8_base", []int64{100, 200, 300})
	b := pairSweep(t, "fig8_head", []int64{100, 240, 300})
	b.SetParam("mode", "full")
	d, err := Diff(a, b, DiffOptions{Keys: []string{"configuration"}})
	if err != nil {
		t.Fatal(err)
	}
	return &Report{
		Title:       "atlahs analyze: fig8_base vs fig8_head",
		Diff:        d,
		Regressions: Gate{RelThreshold: 0.1}.Diff(d),
	}
}

// TestRenderHTMLGolden byte-pins the report renderer: any change to the
// template or its helpers must be reviewed by regenerating the golden
// file with `go test ./internal/analyze -run Golden -update`.
func TestRenderHTMLGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderHTML(&buf, goldenReport(t)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "report.html")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("rendered report differs from %s (rerun with -update after reviewing)\ngot:\n%s", path, buf.String())
	}
}

// diffOnlyPin is the SHA-256 of the golden report: a diff and its
// regressions. Unlike the golden file, -update does not rewrite it.
const diffOnlyPin = "0f2b6fffe8110cea463937bb2aa06fe5ea59e3f71c2141cbdbb38fc93e1e64d4"

// TestRenderHTMLDiffOnlyPinned: a report of a diff and its regressions
// renders as the pinned bytes.
func TestRenderHTMLDiffOnlyPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderHTML(&buf, goldenReport(t)); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != diffOnlyPin {
		t.Errorf("diff-only report: SHA-256 %s, pinned %s", got, diffOnlyPin)
	}
}

// TestRenderHTMLDeterministic renders the same report twice and demands
// identical bytes — the renderer must not depend on map order or clocks.
func TestRenderHTMLDeterministic(t *testing.T) {
	var one, two bytes.Buffer
	if err := RenderHTML(&one, goldenReport(t)); err != nil {
		t.Fatal(err)
	}
	if err := RenderHTML(&two, goldenReport(t)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Error("two renders of the same report differ")
	}
}

func TestRenderHTMLEmptyReport(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderHTML(&buf, &Report{Title: "empty"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "No regressions flagged") {
		t.Errorf("empty report missing ok banner:\n%s", out)
	}
	if strings.Contains(out, "<h2>Diff") {
		t.Error("empty report contains a Diff section")
	}
}

func TestRenderHTMLEscapes(t *testing.T) {
	var buf bytes.Buffer
	r := &Report{Title: `<script>alert("x")</script>`}
	if err := RenderHTML(&buf, r); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "<script>alert") {
		t.Error("title not HTML-escaped")
	}
}

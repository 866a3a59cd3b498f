package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"atlahs/internal/analyze"
	"atlahs/results"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: atlahs
BenchmarkParEngineVsSerial/bsp-128x6/serial-8         	       3	  92331234 ns/op
BenchmarkParEngineVsSerial/bsp-128x6/workers-4-8      	       3	  61002988 ns/op	 12 B/op
BenchmarkExperimentSweepVsSerial/workers-1-8          	       1	1900456123 ns/op
PASS
ok  	atlahs	12.3s
`
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Names stay verbatim: the "-8" GOMAXPROCS suffix is kept because it
	// is textually indistinguishable from a sub-benchmark ending in "-N".
	want := map[string]float64{
		"BenchmarkParEngineVsSerial/bsp-128x6/serial-8":    92331234,
		"BenchmarkParEngineVsSerial/bsp-128x6/workers-4-8": 61002988,
		"BenchmarkExperimentSweepVsSerial/workers-1-8":     1900456123,
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(rep.Benchmarks), len(want), rep.Benchmarks)
	}
	for name, ns := range want {
		if got := rep.Benchmarks[name]; got != ns {
			t.Errorf("%s = %v ns/op, want %v", name, got, ns)
		}
	}
	if rep.Schema != "atlahs.bench/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
}

// TestReportEncodingPinned: the report is written byte for byte as pinned
// (with the toolchain version fixed), so a codec rewrite keeps the
// BENCH_ci.json layout.
func TestReportEncodingPinned(t *testing.T) {
	rep, err := parse(strings.NewReader("BenchmarkB/x-8   3   61002988 ns/op\nBenchmarkA<&>-8   1   1.5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	rep.Go = "go1.24.0"
	var buf bytes.Buffer
	if err := results.EncodeDoc(&buf, rep); err != nil {
		t.Fatal(err)
	}
	const pin = "520134ee3de916bbe8117347e0e736c7f658e16404f30c94d4894169d6fbb9ad"
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != pin {
		t.Errorf("report SHA-256 %x, pinned %s", sum, pin)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok atlahs 0.1s\n")); err == nil {
		t.Fatal("expected an error for bench output without result lines")
	}
}

func TestParseRejectsDuplicateNames(t *testing.T) {
	in := "BenchmarkX-8   3   100 ns/op\nBenchmarkX-8   3   120 ns/op\n"
	if _, err := parse(strings.NewReader(in)); err == nil {
		t.Fatal("expected an error for a benchmark name appearing twice")
	}
}

func TestCheckRequired(t *testing.T) {
	rep := &analyze.BenchReport{Benchmarks: map[string]float64{
		"BenchmarkParEngineVsSerial/bsp-128x6/serial-8": 1,
		"BenchmarkServiceColdVsCacheHit-8":              2,
		"BenchmarkBare":                                 3,
	}}
	ok := []string{
		"", // no requirement
		"BenchmarkParEngineVsSerial",
		"BenchmarkServiceColdVsCacheHit",
		"BenchmarkBare",
		"BenchmarkParEngineVsSerial, BenchmarkBare", // spaces tolerated
		",BenchmarkBare,", // empty elements ignored
	}
	for _, req := range ok {
		if err := checkRequired(rep, req); err != nil {
			t.Errorf("checkRequired(%q) = %v, want nil", req, err)
		}
	}
	bad := []string{
		"BenchmarkExperimentSweepVsSerial",               // absent entirely
		"BenchmarkBar",                                   // prefix of BenchmarkBare, not a match
		"BenchmarkParEngineVsSerial,BenchmarkGoneWrong",  // one present, one missing
		"BenchmarkServiceColdVsCacheHit-16",              // wrong GOMAXPROCS decoration
		"BenchmarkParEngineVsSerial/bsp-128x6/serial-88", // suffix extends past the real name
	}
	for _, req := range bad {
		if err := checkRequired(rep, req); err == nil {
			t.Errorf("checkRequired(%q) = nil, want missing-benchmark error", req)
		}
	}
}

func TestCheckRequiredNamesTheMissing(t *testing.T) {
	rep := &analyze.BenchReport{Benchmarks: map[string]float64{"BenchmarkX-8": 1}}
	err := checkRequired(rep, "BenchmarkZed,BenchmarkX,BenchmarkAbsent")
	if err == nil {
		t.Fatal("want error")
	}
	for _, name := range []string{"BenchmarkZed", "BenchmarkAbsent"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
	if strings.Contains(err.Error(), "BenchmarkX,") || strings.Contains(err.Error(), "BenchmarkX ") {
		t.Errorf("error %q names the present benchmark", err)
	}
}

package sim

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"atlahs/internal/goal"
	"atlahs/internal/storage/directdrive"
	"atlahs/internal/trace/chakra"
	"atlahs/internal/trace/frontend"
	"atlahs/internal/trace/ncclgoal"
	"atlahs/internal/trace/schedgen"
	"atlahs/internal/trace/spc"
	"atlahs/internal/workload/hpcapps"
	"atlahs/internal/workload/llm"
	"atlahs/internal/workload/micro"
	"atlahs/internal/workload/oltp"
)

// frontendCase pairs one frontend's serialised trace with the schedule
// its hand-wired converter produces — the old convert-then-run path the
// registry must reproduce exactly.
type frontendCase struct {
	frontend string
	raw      []byte
	want     *goal.Schedule
}

// frontendCases builds one small trace per registered built-in frontend.
func frontendCases(t *testing.T) []frontendCase {
	t.Helper()
	var cases []frontendCase

	// goal (binary and text renderings of the same schedule)
	ring := micro.Ring(6, 4096)
	var bin, txt bytes.Buffer
	if err := goal.WriteBinary(&bin, ring); err != nil {
		t.Fatal(err)
	}
	if err := goal.WriteText(&txt, ring); err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		frontendCase{"goal", bin.Bytes(), ring},
		frontendCase{"goal", txt.Bytes(), ring},
	)

	// nsys via the 4-stage NCCL pipeline
	rep, err := llm.Generate(llm.Config{
		Model: llm.Llama7B(),
		Par:   llm.Parallelism{TP: 1, PP: 1, DP: 8, EP: 1, GlobalBatch: 8},
		Scale: 1e-4,
		Seed:  9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var nsysBuf bytes.Buffer
	if _, err := rep.WriteTo(&nsysBuf); err != nil {
		t.Fatal(err)
	}
	nsysSched, err := ncclgoal.Generate(rep, ncclgoal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, frontendCase{"nsys", nsysBuf.Bytes(), nsysSched})

	// mpi via Schedgen
	tr, err := hpcapps.Generate(hpcapps.Config{App: hpcapps.LULESH, Ranks: 4, Steps: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var mpiBuf bytes.Buffer
	if _, err := tr.WriteTo(&mpiBuf); err != nil {
		t.Fatal(err)
	}
	mpiSched, err := schedgen.Generate(tr, schedgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, frontendCase{"mpi", mpiBuf.Bytes(), mpiSched})

	// spc via the Direct Drive model. The hand-wired path starts from the
	// serialised artifact (CSV timestamps are %.6f), so the reference
	// conversion parses the same bytes the frontend will see.
	var spcBuf bytes.Buffer
	if _, err := oltp.GenerateFinancial(oltp.FinancialConfig{Ops: 60, Seed: 5}).WriteTo(&spcBuf); err != nil {
		t.Fatal(err)
	}
	spcTrace, err := spc.ParseBytes(spcBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	spcSched, _, err := directdrive.Generate(spcTrace, directdrive.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, frontendCase{"spc", spcBuf.Bytes(), spcSched})

	// chakra via the execution-trace converter
	ct := chakraFixture()
	var ctBuf bytes.Buffer
	if _, err := ct.WriteTo(&ctBuf); err != nil {
		t.Fatal(err)
	}
	ctSched, err := chakra.ToGOAL(ct, chakra.ConvertConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, frontendCase{"chakra", ctBuf.Bytes(), ctSched})

	return cases
}

// chakraFixture builds a 4-rank Chakra trace exercising compute nodes,
// world-group collectives and point-to-point nodes.
func chakraFixture() *chakra.Trace {
	t := &chakra.Trace{Ranks: make([][]chakra.Node, 4)}
	for r := 0; r < 4; r++ {
		var b chakra.Builder
		b.AddComp("fwd", int64(1000*(r+1)))
		b.AddColl(chakra.CollAllReduce, 1<<16, "world")
		b.AddComp("opt", 500)
		if r == 0 {
			b.AddSend(4096, 1, 7)
		}
		if r == 1 {
			b.AddRecv(4096, 0, 7)
		}
		t.Ranks[r] = b.Nodes()
	}
	return t
}

// runResult zeroes a Result's host-time measurement so runs compare
// deterministically.
func runResult(t *testing.T, spec Spec) *Result {
	t.Helper()
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res.Wall = 0
	return res
}

// TestFrontendGoldenEquivalence pins the tentpole contract: for every
// registered frontend, sim.Run on the raw trace — from a path and from
// bytes, format-sniffed and explicitly named — produces results identical
// to running the hand-converted schedule through the old Schedule path.
func TestFrontendGoldenEquivalence(t *testing.T) {
	dir := t.TempDir()
	for i, c := range frontendCases(t) {
		want := runResult(t, Spec{Workload: Workload{Schedule: c.want}})

		// Extension-free filename, so path-based runs exercise content
		// sniffing rather than the extension fallback.
		path := filepath.Join(dir, "trace"+strings.Repeat("x", i+1))
		if err := os.WriteFile(path, c.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		variants := map[string]Spec{
			"bytes-sniffed": {Workload: Workload{Trace: c.raw}},
			"bytes-named":   {Workload: Workload{Trace: c.raw, Frontend: c.frontend}},
			"path-sniffed":  {Workload: Workload{TracePath: path}},
			"path-named":    {Workload: Workload{TracePath: path, Frontend: c.frontend}},
		}
		for label, spec := range variants {
			got := runResult(t, spec)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: result diverged from hand-converted schedule\ngot  %+v\nwant %+v",
					c.frontend, label, got, want)
			}
		}
	}
}

// TestFrontendExtensionFallback: an unsniffable payload still resolves by
// file extension.
func TestFrontendExtensionFallback(t *testing.T) {
	ring := micro.Ring(4, 512)
	var txt bytes.Buffer
	if err := goal.WriteText(&txt, ring); err != nil {
		t.Fatal(err)
	}
	// Leading junk defeats every sniffer but parses as a GOAL comment.
	raw := append([]byte("// "+strings.Repeat("padding ", 600)+"\n"), txt.Bytes()...)
	if len(raw) < 4096+len(txt.Bytes()) {
		t.Fatal("fixture must push num_ranks past the sniff window")
	}
	path := filepath.Join(t.TempDir(), "ring.goal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	want := runResult(t, Spec{Workload: Workload{Schedule: ring}})
	got := runResult(t, Spec{Workload: Workload{TracePath: path}})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("extension-resolved run diverged")
	}
}

// TestConvertTraceFileEqualsConvertTrace: reading the file is all that
// ConvertTraceFile adds to ConvertTrace. For every frontend — the whole
// trace, a trace cut short inside the sniff window, and an empty file;
// sniffed and named — both accept or both reject, with the same message
// up to the path, and what they accept encodes to the same bytes. The
// file names carry no extension, which is the one thing a path adds to
// detection (TestFrontendExtensionFallback).
func TestConvertTraceFileEqualsConvertTrace(t *testing.T) {
	dir := t.TempDir()
	encode := func(s *Schedule) []byte {
		var buf bytes.Buffer
		if err := WriteGOALBinary(&buf, s); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var below, above bool // accepted traces on both sides of SniffLen
	for i, c := range frontendCases(t) {
		for label, raw := range map[string][]byte{"whole": c.raw, "cut": c.raw[:min(len(c.raw), 100)], "empty": nil} {
			path := filepath.Join(dir, fmt.Sprintf("trace-%d-%s", i, label))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"", c.frontend} {
				id := fmt.Sprintf("%s/%s/named=%q", c.frontend, label, name)
				fromFile, fileErr := ConvertTraceFile(path, name, nil)
				fromBytes, bytesErr := ConvertTrace(raw, name, nil)
				switch {
				case fileErr != nil && bytesErr != nil:
					if got := strings.ReplaceAll(fileErr.Error(), path, "trace"); got != bytesErr.Error() {
						t.Errorf("%s: errors differ beyond the path:\nfile  %v\nbytes %v", id, fileErr, bytesErr)
					}
				case fileErr != nil || bytesErr != nil:
					t.Errorf("%s: one side failed: file %v, bytes %v", id, fileErr, bytesErr)
				case !bytes.Equal(encode(fromFile), encode(fromBytes)):
					t.Errorf("%s: schedules encode differently", id)
				default:
					below = below || len(raw) < frontend.SniffLen
					above = above || len(raw) > frontend.SniffLen
				}
			}
		}
	}
	if !below || !above {
		t.Fatalf("fixtures must include accepted traces shorter (%v) and longer (%v) than the sniff window", below, above)
	}
}

func TestFrontendErrors(t *testing.T) {
	ring := micro.Ring(4, 512)
	var bin bytes.Buffer
	if err := goal.WriteBinary(&bin, ring); err != nil {
		t.Fatal(err)
	}

	if _, err := Run(context.Background(), Spec{Workload: Workload{Trace: bin.Bytes(), Frontend: "nope"}}); err == nil ||
		!strings.Contains(err.Error(), "unknown frontend") || !strings.Contains(err.Error(), "nsys") {
		t.Fatalf("unknown frontend error should list the registry, got %v", err)
	}
	if _, err := Run(context.Background(), Spec{Workload: Workload{Trace: []byte("total garbage, no format")}}); err == nil ||
		!strings.Contains(err.Error(), "cannot detect trace format") {
		t.Fatalf("undetectable trace should error, got %v", err)
	}
	// Config of the wrong type is a mismatch, not a silent default.
	if _, err := Run(context.Background(), Spec{Workload: Workload{Trace: bin.Bytes(), Frontend: "nsys", FrontendConfig: LGSConfig{}}}); err == nil ||
		!strings.Contains(err.Error(), "config") {
		t.Fatalf("config mismatch should error, got %v", err)
	}
	// Frontend fields without a trace workload are a spec error.
	if _, err := Run(context.Background(), Spec{Workload: Workload{Schedule: ring, Frontend: "goal"}}); err == nil ||
		!strings.Contains(err.Error(), "only meaningful with") {
		t.Fatalf("frontend without trace should error, got %v", err)
	}
	// The goal frontend takes no config at all.
	if _, err := Run(context.Background(), Spec{Workload: Workload{Trace: bin.Bytes(), FrontendConfig: struct{}{}}}); err == nil {
		t.Fatal("goal frontend with config should error")
	}
}

func TestFrontendsRegistry(t *testing.T) {
	names := Frontends()
	for _, want := range []string{"chakra", "goal", "mpi", "nsys", "spc"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("built-in frontend %q missing from %v", want, names)
		}
		if _, ok := LookupFrontend(want); !ok {
			t.Fatalf("LookupFrontend(%q) failed", want)
		}
	}
	if !sorted(names) {
		t.Fatalf("Frontends() not sorted: %v", names)
	}
}

func sorted(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

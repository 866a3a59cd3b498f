package e2e

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"atlahs/internal/experiments"
	"atlahs/results"
	"atlahs/sim"
)

// TestExperimentsExport: the quick evaluation exports exactly one valid
// atlahs.results/v1 artifact per experiment, and failures reach the exit
// status.
func TestExperimentsExport(t *testing.T) {
	t.Parallel()
	out := t.TempDir()
	run(t, "experiments", "-mode", "quick", "-workers", "0", "-format", "json", "-out", out)
	got := artifacts(t, out)
	for _, name := range experiments.Names() {
		if !got[name] {
			t.Errorf("no artifact for %s", name)
		}
		delete(got, name)
	}
	if len(got) != 0 {
		t.Errorf("artifacts for no experiment: %v", got)
	}

	if _, _, code := runStatus(t, "experiments", "-mode", "quick", "nosuchfigure"); code != 2 {
		t.Errorf("unknown experiment: exit %d, want 2", code)
	}
	t.Run("full sink", func(t *testing.T) {
		full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
		if err != nil {
			t.Skip("no /dev/full:", err)
		}
		defer full.Close()
		// A failed write must not leave a truncated report behind exit 0.
		cmd := exec.Command(bin(t, "experiments"), "-mode", "quick", "fig9")
		cmd.Stdout = full
		if err := cmd.Run(); err == nil {
			t.Error("writing the report to /dev/full exited 0")
		}
	})
}

// TestReplayEveryFrontend: one generated trace per workload kind replays
// through `atlahs -trace`, and the three compose into one interleaved
// multi-job spec whose jobs land on disjoint, non-empty node sets.
func TestReplayEveryFrontend(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	var jobs []sim.JobSpec
	for _, tc := range []struct {
		file string
		args []string
	}{
		// dp 8 spans two 4-GPU nodes: on one node every collective folds
		// into intra-node calcs and there is no send to count.
		{"run.nsys", []string{"-kind", "llm", "-model", "llama7b", "-dp", "8", "-batch", "16"}},
		{"run.mpi", []string{"-kind", "hpc", "-app", "lulesh", "-ranks", "8", "-steps", "2"}},
		{"run.spc", []string{"-kind", "storage", "-ops", "300"}},
	} {
		path := filepath.Join(dir, tc.file)
		run(t, "tracegen", append(tc.args, "-out", path)...)
		replay(t, "-trace", path)
		jobs = append(jobs, sim.JobSpec{Workload: sim.Workload{TracePath: path}})
	}

	wire, err := sim.MarshalSpec(sim.Spec{Jobs: jobs, Placement: "interleaved", Backend: "lgs"})
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "multi.json")
	if err := os.WriteFile(specPath, wire, 0o644); err != nil {
		t.Fatal(err)
	}
	res := replay(t, "-spec", specPath)
	if len(res.JobNodes) != len(jobs) {
		t.Fatalf("job_nodes %v: want one node set per job (%d)", res.JobNodes, len(jobs))
	}
	owner := map[int]int{}
	for job, nodes := range res.JobNodes {
		if len(nodes) == 0 {
			t.Errorf("job %d has no nodes", job)
		}
		for _, n := range nodes {
			if prev, ok := owner[n]; ok {
				t.Errorf("node %d is in jobs %d and %d", n, prev, job)
			}
			owner[n] = job
		}
	}
}

// TestSynthesisRoundTrip: a model mined from an 8-rank trace generates a
// 64-rank schedule that replays, and generation is a pure function of
// (model, ranks, seed) in both GOAL encodings.
func TestSynthesisRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	trace, model := filepath.Join(dir, "run.mpi"), filepath.Join(dir, "model.json")
	run(t, "tracegen", "-kind", "hpc", "-app", "lulesh", "-ranks", "8", "-steps", "4", "-out", trace)
	run(t, "atlahs-synth", "mine", "-in", trace, "-out", model)
	b, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	m, err := results.DecodeModelJSON(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if m.SourceRanks != 8 || m.SourceOps == 0 || m.Phases < 1 {
		t.Fatalf("mined model: source_ranks %d, source_ops %d, phases %d", m.SourceRanks, m.SourceOps, m.Phases)
	}

	gen := func(name string, extra ...string) []byte {
		t.Helper()
		out := filepath.Join(dir, name)
		run(t, "atlahs-synth", append([]string{"gen", "-model", model, "-ranks", "64", "-seed", "7", "-out", out}, extra...)...)
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	text := gen("big.goal")
	if res := replay(t, "-trace", filepath.Join(dir, "big.goal")); res.Ranks != 64 {
		t.Errorf("generated schedule replays on %d ranks, want 64", res.Ranks)
	}
	if !bytes.Equal(gen("again.goal"), text) {
		t.Error("same-seed text generation is not byte-identical")
	}
	if !bytes.Equal(gen("big.bin", "-format", "binary"), gen("again.bin", "-format", "binary")) {
		t.Error("same-seed binary generation is not byte-identical")
	}
}

// TestAnalyzeGatesARealArtifact: `atlahs-analyze diff` matches every row
// of a real quick fig8 artifact on its configuration key, and a 20%
// runtime regression injected into it exits 1 naming the regressed
// records. (Exit codes, thresholds and the HTML report are pinned
// in-process by cmd/atlahs-analyze's tests.)
func TestAnalyzeGatesARealArtifact(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	run(t, "experiments", "-mode", "quick", "-workers", "0", "-format", "json", "-out", dir, "fig8")
	base := filepath.Join(dir, "fig8.json")
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	// A copy, not a second run: the artifact's wall-clock columns measure
	// the host and differ between runs.
	same := filepath.Join(dir, "same.json")
	if err := os.WriteFile(same, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if d := diffJSON(t, "configuration", base, same); d.Changed != 0 || d.RowsA == 0 || d.Matched != d.RowsA {
		t.Fatalf("identical artifacts: changed %d, matched %d of %d rows", d.Changed, d.Matched, d.RowsA)
	}

	s, err := results.DecodeJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for i, c := range s.Columns {
		if c.Name == "measured" {
			col = i
		}
	}
	if col < 0 {
		t.Fatal("fig8 has no measured column")
	}
	for _, row := range s.Rows {
		row[col] = row[col].(int64) * 120 / 100
	}
	worse := filepath.Join(dir, "worse.json")
	f, err := os.Create(worse)
	if err != nil {
		t.Fatal(err)
	}
	if err := results.EncodeJSON(f, s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runStatus(t, "atlahs-analyze", "diff", "-keys", "configuration", "-threshold", "0.1", base, worse)
	if code != 1 {
		t.Fatalf("20%% regression: exit %d, want 1\n%s", code, stderr)
	}
	if !strings.Contains("\n"+string(stderr), "\nREGRESSION measured at configuration=") {
		t.Errorf("stderr does not name the regressed records:\n%s", stderr)
	}
}

// exampleDigests maps each program under examples/ to the SHA-256 of the
// stdout it prints. Every example is deterministic, so a changed digest
// is a changed simulation result.
var exampleDigests = map[string]string{
	"hpc-mpi":       "ddca421f6ded44682cdbd018a663d5bae926e45accc27a737a8ddbcb1373125c",
	"job-placement": "010078e664f42af106cef30a52b733c20e7bf262acd0d735287a8db57d706fbe",
	"llm-training":  "8013f4511f4b0a450a61e6f1b906c46518fc1620e57931f31117d882368d64e6",
	"multi-job":     "2c46292250757164d78bb036a96db555d8595f57dda4d38335fbd668e2a9cdd9",
	"quickstart":    "ab3eac3faa599107a91676db58fb5ac626d9103195f9eb4d2c54b5e1c6e91eca",
	"scaling-study": "190fbc6800b3bfc39aa8808edad9acca0231268e5bc6bdb6d6c502064beb3085",
	"storage-cc":    "cf57befccbd7350151d9f13df84432ed895ca9aec251ad15d1290a946afffde5",
}

// TestExamples: every example exits 0, writes nothing to stderr, and
// prints byte for byte what it printed when its digest was recorded.
func TestExamples(t *testing.T) {
	t.Parallel()
	for name, want := range exampleDigests {
		stdout, stderr, code := runStatus(t, name)
		if code != 0 || len(stderr) != 0 {
			t.Errorf("%s: exit %d, stderr:\n%s", name, code, stderr)
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(stdout)); got != want {
			t.Errorf("%s: stdout SHA-256 %s, want %s\n%s", name, got, want, stdout)
		}
	}
}

// TestCLIRefusesIgnoredFlags: atlahs and tracegen refuse a flag their
// mode would silently ignore, naming it, exiting 1 and writing nothing:
// no stdout and no output file. The server URL is unreachable, so a run
// that reached the network would fail differently.
func TestCLIRefusesIgnoredFlags(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	goalPath := filepath.Join(dir, "pair.goal")
	goalText := "num_ranks 2\nrank 0 {\nl1: send 64b to 1 tag 0\n}\nrank 1 {\nl1: recv 64b from 0 tag 0\n}\n"
	if err := os.WriteFile(goalPath, []byte(goalText), 0o644); err != nil {
		t.Fatal(err)
	}
	wire, err := sim.MarshalSpec(sim.Spec{Workload: sim.Workload{GoalPath: goalPath}, Backend: "lgs"})
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, wire, 0o644); err != nil {
		t.Fatal(err)
	}
	const unreachable = "http://127.0.0.1:1"
	out := filepath.Join(dir, "trace.out")
	for _, tc := range []struct {
		bin, flag string
		args      []string
	}{
		{"atlahs", "-timeline", []string{"-submit", unreachable, "-sweep", "-timeline", filepath.Join(dir, "tl.json"), specPath}},
		{"atlahs", "-progress", []string{"-goal", goalPath, "-progress", "1", "-json"}},
		{"atlahs", "-progress", []string{"-submit", unreachable, "-goal", goalPath, "-progress", "1"}},
		{"atlahs", "-params", []string{"-goal", goalPath, "-params", "foo"}},
		{"atlahs", "-cc", []string{"-goal", goalPath, "-cc", "swift"}},
		{"atlahs", "-oversub", []string{"-goal", goalPath, "-oversub", "2"}},
		{"atlahs", "-hosts-per-tor", []string{"-goal", goalPath, "-hosts-per-tor", "8"}},
		{"atlahs", "-params", []string{"-goal", goalPath, "-backend", "pkt", "-params", "hpc"}},
		{"atlahs", "-cc", []string{"-goal", goalPath, "-backend", "fluid", "-cc", "ndp"}},
		{"atlahs", "-cc", []string{"-submit", unreachable, "-goal", goalPath, "-cc", "ndp"}},
		{"tracegen", "-ranks", []string{"-kind", "storage", "-ranks", "64", "-out", out}},
		{"tracegen", "-model", []string{"-kind", "hpc", "-model", "llama70b", "-out", out}},
		{"tracegen", "-ops", []string{"-kind", "llm", "-ops", "10", "-out", out}},
	} {
		stdout, stderr, code := runStatus(t, tc.bin, tc.args...)
		if code != 1 || !strings.Contains(string(stderr), tc.flag) || len(stdout) != 0 {
			t.Errorf("%s %s: exit %d, want 1 naming %s and no stdout; stdout:\n%s\nstderr:\n%s", tc.bin, strings.Join(tc.args, " "), code, tc.flag, stdout, stderr)
		}
		if _, err := os.Stat(out); err == nil {
			t.Errorf("%s %s wrote %s", tc.bin, strings.Join(tc.args, " "), out)
			os.Remove(out)
		}
	}
}

// TestNoWorkersFlag: neither atlahs nor atlahsd has a -workers flag, so
// asking for one is a usage error (exit 2), not a silent serial run. A
// spec file's "workers" still decodes and runs, serially, since atlahs
// watches every run it makes, with the runtime of the same spec without
// it.
func TestNoWorkersFlag(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	goalPath := filepath.Join(dir, "pair.goal")
	goalText := "num_ranks 2\nrank 0 {\nl1: send 64b to 1 tag 0\n}\nrank 1 {\nl1: recv 64b from 0 tag 0\n}\n"
	if err := os.WriteFile(goalPath, []byte(goalText), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		bin  string
		args []string
	}{
		{"atlahs", []string{"-goal", goalPath, "-workers", "2"}},
		// The unusable address makes a daemon that accepted the flag exit
		// instead of serving.
		{"atlahsd", []string{"-addr", "127.0.0.1:-1", "-workers", "2"}},
	} {
		stdout, stderr, code := runStatus(t, tc.bin, tc.args...)
		if code != 2 || !strings.Contains(string(stderr), "flag provided but not defined: -workers") || len(stdout) != 0 {
			t.Errorf("%s %s: exit %d, want 2 with an undefined-flag error and no stdout; stdout:\n%s\nstderr:\n%s",
				tc.bin, strings.Join(tc.args, " "), code, stdout, stderr)
		}
	}

	runtimePs := map[int]int64{}
	for _, workers := range []int{0, 2} {
		wire, err := sim.MarshalSpec(sim.Spec{
			Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "bsp", Ranks: 8, Bytes: 4096, Phases: 3}},
			Backend:  "lgs", Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		specPath := filepath.Join(dir, fmt.Sprintf("workers-%d.json", workers))
		if err := os.WriteFile(specPath, wire, 0o644); err != nil {
			t.Fatal(err)
		}
		res := replay(t, "-spec", specPath)
		if res.Parallel || res.Workers != 1 {
			t.Errorf("spec with workers %d ran parallel=%v on %d workers, want serial", workers, res.Parallel, res.Workers)
		}
		runtimePs[workers] = res.RuntimePs
	}
	if runtimePs[2] != runtimePs[0] {
		t.Errorf("runtime_ps %d with \"workers\": 2, %d without", runtimePs[2], runtimePs[0])
	}
}

package e2e

import (
	"bytes"
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
	m, err := results.DecodeModelBytes(b)
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
	d, err := results.DecodeDiffJSON(bytes.NewReader(run(t, "atlahs-analyze", "diff", "-keys", "configuration", "-json", base, same)))
	if err != nil {
		t.Fatal(err)
	}
	if d.Changed != 0 || d.RowsA == 0 || d.Matched != d.RowsA {
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

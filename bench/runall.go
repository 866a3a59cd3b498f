package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"text/tabwriter"
	"time"
)

// runRecord is one child run as the ledger keeps it.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *output `json:"result"`
}

// spreadRecord is one metric's run-to-run behaviour on one workload over
// the untraced rounds.
type spreadRecord struct {
	Workload   string    `json:"workload"`
	Metric     string    `json:"metric"`
	Unit       string    `json:"unit"`
	Values     []float64 `json:"values"`
	Median     float64   `json:"median"`
	SpreadPct  float64   `json:"spread_pct"`   // (Q3-Q1)/median, the driver's rule
	MaxPairPct float64   `json:"max_pair_pct"` // largest pairwise difference
	BoundPct   float64   `json:"bound_pct"`    // 0 for an ungated per-layer metric
}

// ledgerFile is what -ledger writes: enough to compare a later run with.
type ledgerFile struct {
	Date       string         `json:"date"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	RunSeconds float64        `json:"run_seconds"`
	Rounds     int            `json:"rounds"`
	Runs       []runRecord    `json:"runs"`
	Spread     []spreadRecord `json:"spread"`
}

// rounds says how often runAll repeats the full set and on which seeds.
type rounds struct {
	seed  uint64
	aa    int // N rounds on the one seed: an A/A run, inputs identical
	seeds int // N rounds on seeds seed..seed+N-1, as the driver makes them
}

func (r rounds) n() int { return max(r.aa, r.seeds, 1) }

func (r rounds) seedOf(round int) uint64 {
	if r.seeds > 0 {
		return r.seed + uint64(round)
	}
	return r.seed
}

// child runs one workload in a process of its own, so that peak memory and
// allocator state are that workload's alone, and parses its result line.
func child(self, name string, seed uint64, seconds float64, trace int, smoke bool) (*output, error) {
	args := []string{"--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "-all"}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var out output
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return &out, nil
}

// runAll runs every workload in turn, as many rounds as asked, prints every
// metric with its unit, sample count and attempted/failed operations, and
// returns the exit code: non-zero on any failed check, under -aa on an
// end-to-end metric whose largest pairwise difference exceeds its bound,
// under -seeds on one whose quartile spread does (setup_s excepted, which
// the driver holds to its bound on medians only).
func runAll(ct *contract, r rounds, seconds float64, trace, smoke bool, ledger string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	names, _ := workloads()
	doc := ledgerFile{
		Date: time.Now().UTC().Format(time.RFC3339), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: gomaxprocs, RunSeconds: seconds, Rounds: r.n(),
	}
	code := 0
	run := func(name string, seed uint64, trace int) *output {
		out, err := child(self, name, seed, seconds, trace, smoke)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
			return nil
		}
		if !out.Correct || out.Failed > 0 {
			code = 1
		}
		doc.Runs = append(doc.Runs, runRecord{name, seed, trace, out})
		return out
	}
	defs := append(slices.Clone(ct.EndToEnd), ct.PerLayer...)

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	if trace && r.n() == 1 {
		fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\tops\tfailed")
		for _, name := range names {
			if out := run(name, r.seed, 1); out != nil {
				for _, d := range defs {
					fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%d\t%d\n", name, d.Name, out.Metrics[d.Name].Value, d.Unit, out.Attempted, out.Failed)
				}
			}
		}
		tw.Flush()
		return code
	}

	// values[workload][metric] collects one value per round.
	values := map[string]map[string][]float64{}
	attempted, failed := map[string]int{}, map[string]int{}
	for round := 0; round < r.n(); round++ {
		for _, name := range names {
			out := run(name, r.seedOf(round), 0)
			if out == nil {
				continue
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for k, m := range out.Metrics {
				values[name][k] = append(values[name][k], m.Value)
			}
			attempted[name] += out.Attempted
			failed[name] += out.Failed
		}
	}
	// The end-to-end metrics first, then what the untraced operations give
	// of the per-layer list: those carry no bound and no verdict.
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tunit\truns\tspread%\tmaxpair%\tbound%\tops\tfailed\t")
	for _, name := range names {
		for _, d := range defs {
			vs := values[name][d.Name]
			if len(vs) == 0 {
				continue
			}
			rec := spreadRecord{
				Workload: name, Metric: d.Name, Unit: d.Unit, Values: vs, Median: median(vs),
				SpreadPct: 100 * spread(vs), MaxPairPct: 100 * maxPairwise(vs), BoundPct: 100 * d.Bound,
			}
			doc.Spread = append(doc.Spread, rec)
			verdict := ""
			switch {
			case d.Bound == 0:
			case r.aa > 1 && rec.MaxPairPct > rec.BoundPct:
				verdict = "MAXPAIR > BOUND"
			case r.seeds > 1 && d.Name != "setup_s" && rec.SpreadPct > rec.BoundPct:
				verdict = "SPREAD > BOUND"
			}
			if verdict != "" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%d\t%.2f\t%.2f\t%.1f\t%d\t%d\t%s\n", name, d.Name, rec.Median, d.Unit,
				len(vs), rec.SpreadPct, rec.MaxPairPct, rec.BoundPct, attempted[name], failed[name], verdict)
		}
	}
	tw.Flush()

	if ledger != "" {
		// The ledger also holds one traced run per workload.
		for _, name := range names {
			run(name, r.seed, 1)
		}
		b, err := json.MarshalIndent(doc, "", " ")
		if err == nil {
			if err = os.MkdirAll(filepath.Dir(ledger), 0o755); err == nil {
				err = os.WriteFile(ledger, append(b, '\n'), 0o644)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	return code
}

// Command bench is the repository's benchmark: five workloads that drive
// every layer of ATLAHS-in-Go from outside, through public functions only,
// end-to-end metrics held to a bound and a traced per-layer ledger, both
// named by BENCHMARK.json at the repository root. See README.md in this
// directory.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one workload, one JSON line
//	bench [-trace 1] [-smoke]                                every workload, as a table
//	bench -aa N | -seeds N [-ledger FILE]                    N rounds on one seed | N seeds: run-to-run spread
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"atlahs/internal/workload/llm"
	"atlahs/sim"
)

// gomaxprocs pins the scheduler width: the reference box has two cores, and
// a benchmark that follows the host would not compare across hosts.
const gomaxprocs = 2

// metricDef names one metric; Bound is the share of the parent's median by
// which an end-to-end metric may get worse (per-layer metrics carry none).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// contract is what the program reads of BENCHMARK.json, the one place that
// names the metrics: which are end-to-end (printed by an untraced run,
// held to a bound) and which per-layer (printed by a traced run, ungated).
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadContract reads BENCHMARK.json and requires it to list exactly the
// workloads the program runs.
func loadContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ct contract
	if err := json.Unmarshal(b, &ct); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var listed []string
	for _, w := range ct.Workloads {
		listed = append(listed, w.Name)
	}
	if names, _ := workloads(); !slices.Equal(listed, names) {
		return nil, fmt.Errorf("%s lists workloads %v, the program runs %v", path, listed, names)
	}
	return &ct, nil
}

// scale sizes the workloads: full is what BENCHMARK.json measures, smoke
// runs every code path in well under a second per workload.
type scale struct {
	llmPar             llm.Parallelism
	hpcRanks, hpcSteps int
	accRanks, accSteps int // the HPC accuracy fixture (the fluid run is quadratic in ranks)
	spcOps             int
	sampleSpecs        int
	setups             int // set-up repetitions; setup_s is their median
	warmups            int // warm-up operations per set-up
	reps               int // repetitions of each per-layer probe
	minOps             int // operations a run makes however short -seconds is
}

var (
	full = scale{
		llmPar:   llm.Parallelism{TP: 2, PP: 2, DP: 8, EP: 1, GlobalBatch: 32},
		hpcRanks: 128, hpcSteps: 9, accRanks: 64, accSteps: 3,
		spcOps: 3400, sampleSpecs: sampleSpecs,
		setups: 3, warmups: 10, reps: 5, minOps: 10,
	}
	smoke = scale{
		llmPar:   llm.Parallelism{TP: 1, PP: 1, DP: 8, EP: 1, GlobalBatch: 16},
		hpcRanks: 8, hpcSteps: 2, accRanks: 8, accSteps: 2,
		spcOps: 60, sampleSpecs: 4,
		setups: 1, warmups: 1, reps: 1, minOps: 4,
	}
)

// sample is one operation's outcome.
type sample struct {
	ms     float64 // wall time
	traced bool
	err    string      // why the operation failed; empty when it did not
	class  string      // service request class: hit, cold or sweep
	res    *sim.Result // replay operations: the simulated result
}

// instance is a set-up workload, ready to be timed.
type instance interface {
	// run performs operations until stop reports true. With a tracer,
	// every other operation records spans.
	run(stop func() bool, tr *tracer) []sample
	// facts returns the exact metrics fixed by the inputs alone.
	facts() (goalBytesPerOp, errVsFluidPct float64)
	// layers runs the decomposition probes behind the per-layer metrics.
	layers(tr *tracer, samples []sample, sz *scale) (map[string]float64, error)
	close()
}

// workloads maps each workload name to its set-up, in reporting order.
func workloads() (names []string, setups map[string]func(uint64, *scale) (instance, error)) {
	setups = map[string]func(uint64, *scale) (instance, error){}
	for _, c := range replayConfigs() {
		names = append(names, c.name)
		setups[c.name] = c.setup
	}
	names = append(names, svcName)
	setups[svcName] = setupSvc
	return names, setups
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	measured map[string]float64 // every value the run produced, by metric name
}

// buildDir is the checkout's build directory, where scratch files go, and
// outDir receives the span files; both are relative to the checkout root,
// which run.sh makes the working directory.
var (
	buildDir = ".bench_build"
	outDir   = filepath.Join("bench", "out")
)

// scratchDir makes a fresh directory under the build directory.
func scratchDir(prefix string) (string, error) {
	base := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix+"-*")
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// runWorkload sets one workload up, measures it for the given time and
// returns its result: the end-to-end metrics, with trace the per-layer ones
// (and the span file), with all whatever of either list the run measured.
func runWorkload(ct *contract, name string, seed uint64, seconds float64, trace, all bool, sz *scale) (*output, error) {
	_, setups := workloads()
	setup, ok := setups[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	runtime.GOMAXPROCS(gomaxprocs)

	// Set-up, several times over: setup_s is the median, the last instance
	// is the one measured.
	var inst instance
	var setupS []float64
	n := sz.setups
	if trace {
		n = 1
	}
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = setup(seed, sz); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()

	var tr *tracer
	if trace {
		tr = newTracer()
	}
	before := memStats()
	start := time.Now()
	var asked atomic.Int64 // the service workload asks from two goroutines
	samples := inst.run(func() bool {
		return asked.Add(1) > int64(sz.minOps) && time.Since(start).Seconds() >= seconds
	}, tr)
	wall := time.Since(start)
	after := memStats()

	out := &output{Attempted: len(samples), Metrics: map[string]metric{}}
	var times, traced, untraced []float64
	for _, s := range samples {
		switch {
		case s.err != "":
			out.Failed++
			times = append(times, math.Inf(1)) // a failure misses any latency limit
			fmt.Fprintf(os.Stderr, "bench: %s: failed operation: %s\n", name, s.err)
			continue
		case s.traced:
			traced = append(traced, s.ms)
		default:
			untraced = append(untraced, s.ms)
		}
		times = append(times, s.ms)
	}
	out.Correct = out.Failed == 0
	// Rates are per successful operation: failing fast must not read as
	// higher throughput or fewer bytes allocated.
	done := float64(len(samples) - out.Failed)

	goalBytes, errPct := inst.facts()
	values := map[string]float64{
		"setup_s":            median(setupS),
		"op_p50_ms":          median(times),
		"op_p90_ms":          percentile(times, 0.9),
		"ops_per_s":          done / wall.Seconds(),
		"alloc_mb_per_op":    float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / done,
		"peak_rss_mb":        peakRSSMB(),
		"goal_bytes_per_op":  goalBytes,
		"err_vs_fluid_pct":   errPct,
		"gc.cycles_per_op":   float64(after.NumGC-before.NumGC) / done,
		"gc.pause_ms_per_op": float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / done,
		"mallocs_per_op":     float64(after.Mallocs-before.Mallocs) / done,
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: n=%d ops in %.2fs (p90 has %d samples beyond it), %d failed\n",
		name, seed, len(samples), wall.Seconds(), samplesBeyond(len(samples), 0.9), out.Failed)
	if !reportable(len(samples), 0.9) {
		fmt.Fprintf(os.Stderr, "bench: %s: too few operations for p90 to have ten samples beyond it\n", name)
	}

	if trace {
		layers, err := inst.layers(tr, samples, sz)
		if err != nil {
			out.Correct = false
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		}
		for k, v := range layers {
			values[k] = v
		}
		if len(untraced) > 0 && len(traced) > 0 {
			values["bench.trace_overhead_pct"] = 100 * (median(traced) - median(untraced)) / median(untraced)
			q1, _, q3 := quartiles(untraced)
			values["bench.op_iqr_pct"] = 100 * (q3 - q1) / median(untraced)
		}
		path := filepath.Join(outDir, "trace-"+name+".json")
		if err := tr.write(path, name, seed); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d spans -> %s\n", name, seed, len(tr.spans), path)
	}

	out.measured = values
	for _, d := range ct.EndToEnd {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json names an end-to-end metric %q the program does not measure", d.Name)
		}
		if !trace || all {
			out.Metrics[d.Name] = metric{finite(v), d.Unit}
		}
	}
	for _, d := range ct.PerLayer {
		// A layer this workload does not pass through reads 0 in a traced
		// run; an untraced run has only the numbers the operations give.
		if v, ok := values[d.Name]; trace || (all && ok) {
			out.Metrics[d.Name] = metric{finite(v), d.Unit}
		}
	}
	return out, nil
}

func main() {
	workload := flag.String("workload", "", "run this one workload and print its result as one JSON line")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 0, "how long the timed section measures (default: BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json")
	all := flag.Bool("all", false, "with -workload: print every metric of either list the run measured, not only the run's own list")
	smokeSize := flag.Bool("smoke", false, "tiny inputs and a 0.2 s timed section: every code path in seconds")
	aa := flag.Int("aa", 0, "run the full set N times on one seed and fail if an end-to-end metric's largest pairwise difference exceeds its bound")
	seeds := flag.Int("seeds", 0, "run the full set on seeds seed..seed+N-1 and fail if a metric's quartile spread exceeds its bound (the driver's rule)")
	ledger := flag.String("ledger", "", "with no -workload: also write every run and the spreads to this JSON file")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || (*aa > 0 && *seeds > 0) {
		flag.Usage()
		os.Exit(2)
	}
	ct, err := loadContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *seconds == 0 {
		*seconds = float64(ct.RunSeconds)
	}
	sz := &full
	if *smokeSize {
		sz, *seconds = &smoke, 0.2
	}
	if *workload == "" {
		os.Exit(runAll(ct, rounds{seed: *seed, aa: *aa, seeds: *seeds}, *seconds, *trace == 1, *smokeSize, *ledger))
	}
	out, err := runWorkload(ct, *workload, *seed, *seconds, *trace == 1, *all, sz)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

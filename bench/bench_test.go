package main

import (
	"math"
	"os"
	"reflect"
	"testing"

	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/sched"
	"atlahs/internal/simtime"
	"atlahs/internal/workload/micro"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 0.9); got != 5 {
		t.Errorf("p90 = %v, want 5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// A failed operation counts as infinitely slow: it moves the tail, and
	// the median only once half the operations fail.
	withFailure := []float64{1, 2, 3, math.Inf(1)}
	if got := percentile(withFailure, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
	if got := median(withFailure); got != 2 {
		t.Errorf("median with a failure = %v, want 2", got)
	}
	if got := finite(math.Inf(1)); got != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %v", got)
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{100, 0.9, true}, {99, 0.9, false}, {1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := reportable(c.n, c.p); got != c.want {
			t.Errorf("reportable(%d, %v) = %v (%d beyond), want %v", c.n, c.p, got, samplesBeyond(c.n, c.p), c.want)
		}
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// prints for the same lists.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}

func TestMaxPairwise(t *testing.T) {
	if got := maxPairwise([]float64{100, 103, 98}); math.Abs(got-5.0/98) > 1e-12 {
		t.Errorf("maxPairwise = %v, want %v", got, 5.0/98)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", Start: 0, End: 100e6, Parent: -1},
		{Name: "resolve", Start: 0, End: 30e6, Parent: 0},
		{Name: "run", Start: 30e6, End: 90e6, Parent: 0},
	}}
	self := tr.selfMs()
	if self["op"] != 10 || self["resolve"] != 30 || self["run"] != 60 {
		t.Errorf("self times = %v, want op 10, resolve 30, run 60", self)
	}
	var none *tracer
	none.end(none.begin("ignored", -1, 0)) // a nil tracer records nothing
}

func TestNullBackendCompletesEveryPattern(t *testing.T) {
	la := 1 * simtime.Microsecond
	patterns := map[string]*goal.Schedule{
		"incast":      micro.Incast(12, 11, 4096),
		"permutation": micro.Permutation(12, 4096, 3),
		"ring":        micro.Ring(12, 4096),
		"alltoall":    micro.AllToAll(12, 4096),
		"uniform":     micro.UniformRandom(12, 200, 4096, 3),
		"bsp":         micro.BulkSynchronous(12, 3, 4096, 1000),
	}
	for name, s := range patterns {
		want := s.ComputeStats().Ops
		engines := map[string]engine.Sim{"serial": engine.New(), "parallel": engine.NewParallel(s.NumRanks(), 2, la)}
		for kind, eng := range engines {
			res, err := sched.Run(eng, s, &nullBackend{la: la}, sched.Options{})
			if err != nil {
				t.Errorf("%s on the %s engine: %v", name, kind, err)
				continue
			}
			if res.Ops != want {
				t.Errorf("%s on the %s engine: %d ops completed, schedule has %d", name, kind, res.Ops, want)
			}
		}
	}
}

func TestRequestMixIsDeterministicPerSeed(t *testing.T) {
	draw := func(seed uint64, client int) []request {
		m := newMix(seed, client, svcClients)
		out := make([]request, 4000)
		for i := range out {
			out[i] = m.draw()
		}
		return out
	}
	a, b := draw(7, 0), draw(7, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and client drew two different request sequences")
	}
	if reflect.DeepEqual(a, draw(8, 0)) {
		t.Error("two seeds drew the same request sequence")
	}
	var fresh, old, sweeps int
	sent := map[int]bool{}
	for _, req := range a {
		switch {
		case req.sweep:
			sweeps++
			if len(req.idx) != sweepSize {
				t.Fatalf("sweep of %d specs, want %d", len(req.idx), sweepSize)
			}
			seen := map[int]bool{}
			for i, idx := range req.idx {
				if seen[idx] {
					t.Fatalf("sweep names spec %d twice", idx)
				}
				seen[idx] = true
				if i < sweepSize/2 != sent[idx] {
					t.Fatalf("sweep position %d: spec %d sent before = %v", i, idx, sent[idx])
				}
			}
		case sent[req.idx[0]]:
			old++
		default:
			fresh++
		}
		for _, idx := range req.idx {
			if idx%svcClients != 0 {
				t.Fatalf("client 0 drew spec %d, which belongs to another client", idx)
			}
			sent[idx] = true
		}
	}
	n := float64(len(a))
	for _, c := range []struct {
		name        string
		got         int
		share, slop float64
	}{{"re-submissions", old, 0.70, 0.03}, {"new specs", fresh, 0.25, 0.03}, {"sweeps", sweeps, 0.05, 0.015}} {
		if math.Abs(float64(c.got)/n-c.share) > c.slop {
			t.Errorf("%s are %.3f of the mix, want about %.2f", c.name, float64(c.got)/n, c.share)
		}
	}
}

// The contract file sits at the repository root, one directory up.
func testContract(t *testing.T) *contract {
	t.Helper()
	ct, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func TestBenchmarkJSONKeepsItsPromises(t *testing.T) {
	ct := testContract(t)
	// The driver makes 4 + 22 x workloads runs inside 3420 s; leave a third
	// of each run for set-up and start-up.
	if runs := 4 + 22*len(ct.Workloads); float64(runs)*float64(ct.RunSeconds)*1.5 > 3420 {
		t.Errorf("%d runs of %d s leave no room for set-up inside 3420 s", runs, ct.RunSeconds)
	}
	var setupBound, largest float64
	for _, d := range ct.EndToEnd {
		largest = max(largest, d.Bound)
		if d.Name == "setup_s" {
			setupBound = d.Bound
			if d.Unit != "s" || d.Better != "lower" {
				t.Errorf("setup_s is %s, better %s", d.Unit, d.Better)
			}
			continue
		}
		// The issue's ceiling: a metric that cannot hold 10% is not gated.
		// Only setup_s, which the driver's contract forces into this list
		// with the largest bound, may go up to the contract's 25%.
		if d.Bound <= 0 || d.Bound > 0.10 {
			t.Errorf("%s: bound %v outside (0, 0.10]", d.Name, d.Bound)
		}
	}
	if setupBound <= 0 || setupBound > 0.25 || setupBound < largest {
		t.Errorf("setup_s has bound %v, the largest is %v", setupBound, largest)
	}
	for _, d := range ct.PerLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", d.Name)
		}
	}
}

// Every workload runs end to end at smoke size, untraced and traced, and
// between them the runs produce every metric BENCHMARK.json names: a
// misspelt name would otherwise read 0 for ever.
func TestSmokeRunsEveryWorkloadEndToEnd(t *testing.T) {
	ct := testContract(t)
	buildDir, outDir = t.TempDir(), t.TempDir()
	names, _ := workloads()
	measured := map[string]bool{}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			out, err := runWorkload(ct, name, 1, 0.2, trace, false, &smoke)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < smoke.minOps {
				t.Errorf("%s (trace %v): correct %v, %d attempted, %d failed", name, trace, out.Correct, out.Attempted, out.Failed)
			}
			for k := range out.measured {
				measured[k] = true
			}
			defs := ct.EndToEnd
			if trace {
				defs = ct.PerLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics, want %d", name, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s (trace %v): metric %s = %+v (present %v)", name, trace, d.Name, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
			if trace {
				if _, err := os.Stat(outDir + "/trace-" + name + ".json"); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			}
		}
	}
	for _, d := range append(ct.EndToEnd, ct.PerLayer...) {
		if !measured[d.Name] {
			t.Errorf("no workload measures %s", d.Name)
		}
		delete(measured, d.Name)
	}
	for k := range measured {
		t.Errorf("the program measures %s, which BENCHMARK.json does not name", k)
	}
}

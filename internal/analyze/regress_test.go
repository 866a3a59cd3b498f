package analyze

import (
	"math"
	"regexp"
	"testing"

	"atlahs/results"
)

func diffFor(t *testing.T, measuredA, measuredB []int64) *results.SweepDiff {
	t.Helper()
	d, err := Diff(pairSweep(t, "a", measuredA), pairSweep(t, "b", measuredB),
		DiffOptions{Keys: []string{"configuration"}})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGateDiffFlagsOnlyPastThreshold(t *testing.T) {
	// cfg_a +5%, cfg_b +20%, cfg_c improves; derived total_ps +2.5%.
	d := diffFor(t, []int64{100, 200, 300}, []int64{105, 240, 270})
	regs := Gate{RelThreshold: 0.1}.Diff(d)
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want exactly one (cfg_b measured +20%%)", regs)
	}
	r := regs[0]
	if r.Metric != "measured" || r.Where != "configuration=cfg_b" || r.A != 200 || r.B != 240 || r.Rel != 0.2 {
		t.Errorf("regression = %+v", r)
	}
	if got := r.String(); got != "REGRESSION measured at configuration=cfg_b: 200 -> 240 (+20.0%)" {
		t.Errorf("String() = %q", got)
	}
}

func TestGateDiffZeroThresholdFlagsAnyWorsening(t *testing.T) {
	d := diffFor(t, []int64{100, 200, 300}, []int64{101, 200, 300})
	regs := Gate{RelThreshold: 0}.Diff(d)
	// cfg_a measured +1% and total_ps +0.17% both worsen.
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v, want cfg_a measured and derived total_ps", regs)
	}
	if regs[0].Metric != "measured" || regs[1].Metric != "total_ps" || regs[1].Where != "derived" {
		t.Errorf("regressions = %+v, want measured first (larger Rel), then total_ps", regs)
	}
}

func TestCheckThreshold(t *testing.T) {
	for _, c := range []struct {
		t  float64
		ok bool
	}{{0, true}, {0.1, true}, {5, true}, {math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false}, {-1, false}} {
		if err := CheckThreshold(c.t); (err == nil) != c.ok {
			t.Errorf("CheckThreshold(%v) = %v, want ok %v", c.t, err, c.ok)
		}
	}
}

func TestGateDiffImprovementsNotFlagged(t *testing.T) {
	d := diffFor(t, []int64{100, 200, 300}, []int64{50, 100, 150})
	if regs := (Gate{RelThreshold: 0}).Diff(d); len(regs) != 0 {
		t.Errorf("improvements flagged as regressions: %+v", regs)
	}
}

func TestGateDiffMetricFilter(t *testing.T) {
	d := diffFor(t, []int64{100, 200, 300}, []int64{200, 400, 600})
	regs := Gate{RelThreshold: 0.1, Metrics: regexp.MustCompile(`^total_`)}.Diff(d)
	if len(regs) != 1 || regs[0].Metric != "total_ps" {
		t.Errorf("filtered regressions = %+v, want only total_ps", regs)
	}
}

func TestGateDiffSkipsZeroBaseline(t *testing.T) {
	a := results.NewSweep("a", "A", "test")
	a.AddColumn("v", results.Float, "")
	a.MustAddRow(0.0)
	a.SetDerived("agg", 0)
	b := results.NewSweep("b", "B", "test")
	b.AddColumn("v", results.Float, "")
	b.MustAddRow(9.0)
	b.SetDerived("agg", 9)
	d, err := Diff(a, b, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if regs := (Gate{RelThreshold: 0}).Diff(d); len(regs) != 0 {
		t.Errorf("zero-baseline fields gated: %+v", regs)
	}
}

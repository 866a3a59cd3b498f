package analyze

import (
	"fmt"
	"math"
	"regexp"
	"sort"

	"atlahs/results"
)

// Gate configures regression detection. Every gated metric in this
// toolchain — simulated runtime, ns/op, executed-op cost — is a cost, so
// the gate is one-sided: only increases can regress; improvements are
// never flagged.
type Gate struct {
	// RelThreshold is the minimum relative worsening (B-A)/A to flag; 0
	// flags any worsening. CheckThreshold says which values are valid.
	RelThreshold float64
	// Metrics optionally restricts gating to column and derived names
	// matching this pattern; nil gates every numeric metric.
	Metrics *regexp.Regexp
}

// CheckThreshold rejects a relative threshold that would turn the gate
// off without saying so: no worsening reaches NaN or +Inf, and a negative
// threshold duplicates not gating at all.
func CheckThreshold(t float64) error {
	if !(t >= 0) || math.IsInf(t, 1) {
		return fmt.Errorf("threshold %v: want a finite number >= 0", t)
	}
	return nil
}

// Regression is one flagged metric movement.
type Regression struct {
	// Metric is the regressed column or derived key.
	Metric string `json:"metric"`
	// Where locates it: a row's key cells or index for a diff field,
	// "derived" for an aggregate.
	Where string `json:"where"`
	// A is the baseline (the value in sweep A) and B the regressed
	// observation; Rel is (B-A)/A.
	A   float64 `json:"a"`
	B   float64 `json:"b"`
	Rel float64 `json:"rel"`
}

func (r Regression) String() string {
	return fmt.Sprintf("REGRESSION %s at %s: %v -> %v (%+.1f%%)", r.Metric, r.Where, r.A, r.B, 100*r.Rel)
}

// metricAllowed applies the optional name filter.
func (g Gate) metricAllowed(name string) bool {
	return g.Metrics == nil || g.Metrics.MatchString(name)
}

// relTrips reports whether a baseline→observation move trips the
// relative gate. A zero or negative baseline never trips: the relative
// move is undefined and sign conventions stop meaning "cost grew".
func (g Gate) relTrips(a, b float64) bool {
	if a <= 0 || b <= a {
		return false
	}
	return (b-a)/a >= g.RelThreshold
}

// Diff gates a sweep diff: every numeric field delta and derived delta
// whose relative worsening passes the threshold is flagged, most severe
// first. Fields with an undefined relative delta (zero baseline) are
// reported in the diff but never gated — there is no meaningful
// percentage to compare against the threshold.
func (g Gate) Diff(d *results.SweepDiff) []Regression {
	var regs []Regression
	for _, row := range d.Rows {
		where := rowWhere(row.Row, row.Key)
		for _, f := range row.Fields {
			if f.Kind == results.String || f.Rel == nil || !g.metricAllowed(f.Column) {
				continue
			}
			a, b := cellFloat(f.A), cellFloat(f.B)
			if g.relTrips(a, b) {
				regs = append(regs, Regression{Metric: f.Column, Where: where, A: a, B: b, Rel: *f.Rel})
			}
		}
	}
	for _, s := range d.Derived {
		if s.Rel == nil || !g.metricAllowed(s.Key) {
			continue
		}
		if g.relTrips(s.A, s.B) {
			regs = append(regs, Regression{Metric: s.Key, Where: "derived", A: s.A, B: s.B, Rel: *s.Rel})
		}
	}
	sort.SliceStable(regs, func(i, j int) bool { return regs[i].Rel > regs[j].Rel })
	return regs
}

package main

import (
	"math"
	"sort"

	"atlahs/internal/stats"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-quantile (0 <= p <= 1) of xs by nearest rank,
// through the repo's own stats.Sample; 0 for no samples. A failed
// operation's +Inf sorts last and needs no special case.
func percentile(xs []float64, p float64) float64 {
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Percentile(100 * p)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// samplesBeyond is how many of n samples lie above the p-quantile. A
// percentile is only worth reporting when at least ten do (the
// choosing-metrics rule), which is why the workloads are sized for n >= 100
// and report p90.
func samplesBeyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(1-p) + 1e-9))
}

// reportable says whether the p-quantile of n samples has at least ten
// samples beyond it.
func reportable(n int, p float64) bool { return samplesBeyond(n, p) >= 10 }

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the default "exclusive" method), which is how the benchmark
// driver measures run-to-run spread. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile distance as a share of the median: the
// noise figure the driver holds against a metric's bound.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, med, q3 := quartiles(xs) // the middle cut is the median
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// maxPairwise is the largest relative difference between any two samples,
// as a share of the smaller one.
func maxPairwise(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	if s[0] == 0 {
		return 0
	}
	return math.Abs((s[len(s)-1] - s[0]) / s[0])
}

// finite maps the +Inf a failed operation contributes to a percentile onto
// the largest float, so that the result still encodes as JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// Package stats provides the small statistics toolkit used by the
// experiment harness: a sample accumulator answering mean, max and exact
// quantiles, and the paper's percent-error convention.
// Message-completion-time (MCT) statistics for the storage case study
// (paper Fig 11) are computed with it.
package stats

import (
	"math"
	"sort"

	"atlahs/internal/simtime"
)

// Sample accumulates float64 observations and answers summary queries.
// The zero value is an empty, usable accumulator.
type Sample struct {
	xs     []float64
	sum    float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sum += x
	s.sorted = false
}

// AddDuration records a simulated duration in microseconds (the unit the
// paper reports MCT in).
func (s *Sample) AddDuration(d simtime.Duration) { s.Add(d.Microseconds()) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

// Max returns the maximum observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on the sorted sample.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[n-1]
	}
	rank := int(math.Ceil(p/100*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return s.xs[rank]
}

// PercentError returns 100*(predicted-actual)/actual, the error convention
// used throughout the paper's validation figures.
func PercentError(predicted, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	return 100 * (predicted - actual) / actual
}

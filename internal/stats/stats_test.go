package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"atlahs/internal/simtime"
	"atlahs/internal/xrand"
)

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestBasicMoments(t *testing.T) {
	var s Sample
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Fatalf("N=%d", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("mean=%v", s.Mean())
	}
	if s.Max() != 5 {
		t.Fatalf("max=%v", s.Max())
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); got != 50 {
		t.Fatalf("p50=%v", got)
	}
	if got := s.Percentile(99); got != 99 {
		t.Fatalf("p99=%v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("p100=%v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0=%v", got)
	}
}

func TestPercentileAfterAddResorts(t *testing.T) {
	var s Sample
	s.Add(5)
	_ = s.Percentile(50)
	s.Add(1)
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("resort after Add failed: p0=%v", got)
	}
}

func TestAddDuration(t *testing.T) {
	var s Sample
	s.AddDuration(2500 * simtime.Nanosecond)
	if got := s.Mean(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("AddDuration recorded %v µs, want 2.5", got)
	}
}

// Property: percentile is monotone in p and bounded by the smallest
// observation and the largest.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := xrand.New(seed)
		var s Sample
		cnt := int(n%100) + 1
		for i := 0; i < cnt; i++ {
			s.Add(rng.Float64() * 1000)
		}
		lo := math.Inf(1)
		for _, x := range s.xs {
			lo = math.Min(lo, x)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev || v < lo || v > s.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies between the smallest and the largest observation.
func TestMomentBoundsProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := xrand.New(seed)
		var s Sample
		cnt := int(n%50) + 1
		for i := 0; i < cnt; i++ {
			s.Add(rng.Normal(0, 100))
		}
		return s.Mean() >= s.Percentile(0)-1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMatchesSorted(t *testing.T) {
	rng := xrand.New(3)
	var s Sample
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Float64()
		s.Add(xs[i])
	}
	sort.Float64s(xs)
	if got := s.Percentile(99); got != xs[int(math.Ceil(0.99*1000))-1] {
		t.Fatalf("p99 mismatch: %v", got)
	}
}

func TestPercentError(t *testing.T) {
	if got := PercentError(95, 100); got != -5 {
		t.Fatalf("PercentError(95,100)=%v", got)
	}
	if got := PercentError(110, 100); math.Abs(got-10) > 1e-12 {
		t.Fatalf("PercentError(110,100)=%v", got)
	}
	if got := PercentError(1, 0); got != 0 {
		t.Fatalf("PercentError(x,0)=%v, want 0", got)
	}
}

package sched

import (
	"fmt"
	"sync"
	"testing"

	"atlahs/internal/backend"
	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/trace/schedgen"
	"atlahs/internal/workload/hpcapps"
)

// scalingSchedules holds BenchmarkRunScaling's converted schedules, one
// per rank count, so that a size's trace is generated and converted once
// per process however many times the benchmark function is called.
var scalingSchedules sync.Map // int -> *goal.Schedule

// scalingSchedule is 9 steps of LULESH (seed 1) on ranks ranks, converted
// by Schedgen, the "mpi" frontend's converter.
func scalingSchedule(b *testing.B, ranks int) *goal.Schedule {
	if s, ok := scalingSchedules.Load(ranks); ok {
		return s.(*goal.Schedule)
	}
	tr, err := hpcapps.Generate(hpcapps.Config{App: hpcapps.LULESH, Ranks: ranks, Steps: 9, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s, err := schedgen.Generate(tr, schedgen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	scalingSchedules.Store(ranks, s)
	return s
}

// BenchmarkRunScaling times one run of the same application at 128, 512
// and 2 048 ranks on a fresh serial engine and LGS at the HPC parameters.
// The work per op is the same at every size (events and bytes per op are
// flat), so ns/op growing with the rank count is the cost of the per-rank
// state no longer fitting in cache. Conversion is outside the timer; each
// iteration starts from a new State, as sched.Run does. The 2 048-rank
// schedule has about 2.5 M ops, so -benchtime 1x is enough to read it.
func BenchmarkRunScaling(b *testing.B) {
	for _, ranks := range []int{128, 512, 2048} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			s := scalingSchedule(b, ranks)
			ops := s.ComputeStats().Ops
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(engine.New(), s, backend.NewLGS(backend.HPCParams()), Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Ops != ops {
					b.Fatalf("run completed %d of %d ops", res.Ops, ops)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*ops), "ns/goal-op")
		})
	}
}

// Paired perf benchmarks: each pins one off/on pair (cold-vs-hit style)
// so one `go test -bench` run measures both sides of the trade. The shared
// workload is a 64-rank, multi-hundred-thousand-op seeded schedule — big
// enough that allocation behaviour dominates, small enough for CI's
// -benchtime 3x.
package atlahs

import (
	"context"
	"sync"
	"testing"

	"atlahs/internal/goal"
	"atlahs/internal/workload/micro"
	"atlahs/sim"
)

// perfWorkload is the shared large schedule, built once (80k messages ->
// 240k ops over 64 ranks, chain-heavy like trace-converted GOAL).
var perfWorkload = sync.OnceValue(func() (w struct {
	s   *goal.Schedule
	ops int64
}) {
	w.s = micro.UniformRandom(64, 80_000, 4096, 7)
	w.ops = w.s.ComputeStats().Ops
	return w
})

// BenchmarkTelemetryOffVsOn pairs the observability tax: the shared
// schedule through the sim facade with telemetry off (the default — the
// per-run metrics snapshot is always assembled, so "off" carries it)
// versus with a timeline recorder attached, which touches every op
// completion. Both sides run serially, so the pair times the recorder,
// not the lane engine. The off side must stay on the allocation-lean hot
// path; the on side bounds what -timeline and the service's trace
// recording cost.
func BenchmarkTelemetryOffVsOn(b *testing.B) {
	w := perfWorkload()
	base := sim.Spec{Workload: sim.Workload{Schedule: w.s}, Backend: "lgs"}
	run := func(b *testing.B, tl *sim.Timeline) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spec := base
			if tl != nil {
				tl.Reset()
				spec.Timeline = tl
			}
			res, err := sim.Run(context.Background(), spec)
			if err != nil {
				b.Fatal(err)
			}
			if res.Ops != w.ops {
				b.Fatal("incomplete run")
			}
			if tl != nil && tl.Dropped() > 0 {
				b.Fatal("timeline recorder overflowed; raise the benchmark's event bound")
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("timeline", func(b *testing.B) { run(b, sim.NewTimeline(1<<20)) })
}

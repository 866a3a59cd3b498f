// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact, quick-sized) plus substrate micro-benches.
// Run with:
//
//	go test -bench=. -benchmem
package atlahs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"testing"

	"atlahs/internal/astra"
	"atlahs/internal/backend"
	"atlahs/internal/engine"
	"atlahs/internal/experiments"
	"atlahs/internal/goal"
	"atlahs/internal/sched"
	"atlahs/internal/service"
	"atlahs/internal/trace/chakra"
	"atlahs/internal/trace/ncclgoal"
	"atlahs/internal/trace/schedgen"
	"atlahs/internal/workload/hpcapps"
	"atlahs/internal/workload/llm"
	"atlahs/internal/workload/micro"
	"atlahs/sim"
)

func astraSimulate(tr *chakra.Trace) (*astra.Result, error) {
	return astra.Simulate(tr, astra.Config{})
}

// --- one benchmark per paper table/figure -----------------------------------

// benchExperiment computes and renders one quick-sized experiment per
// iteration, as cmd/experiments does.
func benchExperiment(b *testing.B, name string) {
	for i := 0; i < b.N; i++ {
		reps, err := experiments.Reports(experiments.Quick, 1, []string{name})
		if err != nil {
			b.Fatal(err)
		}
		reps[0].Render(io.Discard)
	}
}

func BenchmarkFig1C(b *testing.B)  { benchExperiment(b, "fig1c") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }

// --- ablations: design choices measured in isolation -------------------------

// BenchmarkAblationEagerVsRendezvous measures the LGS rendezvous handshake
// cost at the protocol switch point.
func BenchmarkAblationEagerVsRendezvous(b *testing.B) {
	mk := func(size int64) *goal.Schedule {
		bl := goal.NewBuilder(2)
		for i := 0; i < 100; i++ {
			bl.Rank(0).Send(size, 1, int32(i))
			bl.Rank(1).Recv(size, 0, int32(i))
		}
		return bl.MustBuild()
	}
	for _, c := range []struct {
		name string
		size int64
	}{{"eager-255KB", 255 * 1000}, {"rendezvous-256KB", 256 * 1000}} {
		b.Run(c.name, func(b *testing.B) {
			s := mk(c.size)
			for i := 0; i < b.N; i++ {
				if _, err := sched.Run(engine.New(), s, backend.NewLGS(backend.HPCParams()), sched.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationNCCLChannels measures pipeline + simulation cost across
// NCCL channel counts.
func BenchmarkAblationNCCLChannels(b *testing.B) {
	rep, err := llm.Generate(llm.Config{
		Model: llm.Llama7B(),
		Par:   llm.Parallelism{TP: 1, PP: 1, DP: 8, EP: 1, GlobalBatch: 16},
		Scale: 1e-4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, ch := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "1ch", 2: "2ch", 4: "4ch"}[ch], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := ncclgoal.Generate(rep, ncclgoal.Config{GPUsPerNode: 4, Channels: ch})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sched.Run(engine.New(), s, backend.NewLGS(backend.AIParams()), sched.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGoalEncodings compares binary and text GOAL encodings.
func BenchmarkAblationGoalEncodings(b *testing.B) {
	tr, err := hpcapps.Generate(hpcapps.Config{App: hpcapps.LULESH, Ranks: 27, Steps: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s, err := schedgen.Generate(tr, schedgen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := goal.WriteBinary(io.Discard, s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("text", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := goal.WriteText(io.Discard, s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- parallel simulation subsystem -------------------------------------------

// BenchmarkParEngineVsSerial is the paired serial-vs-parallel measurement
// for the sharded engine (paper §5's parallelised LogGOPSim): the same
// multi-rank LGS workloads on the serial engine and on the parallel engine
// at 1/2/4/8 workers. Results are bit-identical (see
// TestParallelLGSMatchesSerial); only wall-clock should move. Two effects
// stack: per-lane event queues are ~P times shallower than the serial
// engine's single global heap (visible even on one core), and on
// multi-core hosts the lanes execute concurrently inside each lookahead
// window.
func BenchmarkParEngineVsSerial(b *testing.B) {
	for _, wl := range []struct {
		name string
		s    *goal.Schedule
	}{
		{"bsp-128x6", micro.BulkSynchronous(128, 6, 65536, 3000)},
		{"alltoall-128", micro.AllToAll(128, 131072)},
	} {
		s := wl.s
		ops := int64(s.ComputeStats().Ops)
		run := func(b *testing.B, do func() (*sched.Result, error)) {
			for i := 0; i < b.N; i++ {
				res, err := do()
				if err != nil {
					b.Fatal(err)
				}
				if res.Ops != ops {
					b.Fatal("incomplete run")
				}
			}
		}
		b.Run(wl.name+"/serial", func(b *testing.B) {
			run(b, func() (*sched.Result, error) {
				return sched.Run(engine.New(), s, backend.NewLGS(backend.AIParams()), sched.Options{})
			})
		})
		for _, workers := range []int{1, 2, 4, 8} {
			workers := workers
			b.Run(fmt.Sprintf("%s/workers-%d", wl.name, workers), func(b *testing.B) {
				// Construct the parallel engine directly: sim.Run routes
				// workers=1 to the serial engine, and this pairing is about
				// ParEngine behaviour at every worker count.
				run(b, func() (*sched.Result, error) {
					be := backend.NewLGS(backend.AIParams())
					eng := engine.NewParallel(s.NumRanks(), workers, be.Lookahead())
					return sched.Run(eng, s, be, sched.Options{})
				})
			})
		}
	}
}

// BenchmarkExperimentSweepVsSerial measures the concurrent experiment
// runner: the full quick-mode evaluation executed serially versus fanned
// out across 4 workers (independent experiments and configuration points).
func BenchmarkExperimentSweepVsSerial(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := experiments.RunAll(io.Discard, experiments.Quick, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- simulation service --------------------------------------------------------

// BenchmarkServiceColdVsCacheHit is the paired measurement behind the
// service subsystem's claim: an identical re-submission is answered from
// the content-addressed run cache without simulating, so the hit path
// (fingerprint + lookup) must be orders of magnitude (>= 100x) faster
// than the cold path (fingerprint + queue + full simulation + artifact
// export) on the same spec.
func BenchmarkServiceColdVsCacheHit(b *testing.B) {
	spec := sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "alltoall", Ranks: 32, Bytes: 65536}},
		Backend: "lgs"}
	// The service logs each run's lifecycle; `go test` merges stderr into
	// stdout, where a log line lands in the middle of the benchmark's result
	// line and breaks it for benchstat and every other reader.
	cfg := service.Config{Jobs: 1, Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	wait := func(b *testing.B, svc *service.Service, snap service.Snapshot) service.Snapshot {
		done, err := svc.Wait(context.Background(), snap.ID)
		if err != nil {
			b.Fatal(err)
		}
		if done.Status != service.StatusDone {
			b.Fatalf("run %s ended %s: %s", done.ID, done.Status, done.Err)
		}
		return done
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			svc, err := service.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			snap, err := svc.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			wait(b, svc, snap)
			svc.Close()
		}
	})
	b.Run("hit", func(b *testing.B) {
		svc, err := service.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		first, err := svc.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		wait(b, svc, first)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap, err := svc.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			if !snap.Cached || snap.Status != service.StatusDone || snap.Result == nil {
				b.Fatalf("re-submission missed the cache: %+v", snap)
			}
		}
	})
}

// --- substrate throughput -----------------------------------------------------

// BenchmarkLGSimulationThroughput measures scheduler+LGS ops/second on an
// incast-heavy schedule.
func BenchmarkLGSimulationThroughput(b *testing.B) {
	s := micro.AllToAll(16, 4096)
	ops := int64(s.ComputeStats().Ops)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sched.Run(engine.New(), s, backend.NewLGS(backend.AIParams()), sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Ops != ops {
			b.Fatal("incomplete run")
		}
	}
	b.ReportMetric(float64(ops), "goalops/op")
}

// BenchmarkSimRuntimeLGSvsAstra is the paper's §5.2 wall-clock comparison
// in benchmark form: simulating the same DP workload via GOAL+LGS versus
// the Chakra+astra baseline.
func BenchmarkSimRuntimeLGSvsAstra(b *testing.B) {
	cfg := llm.Config{
		Model: llm.Llama7B(),
		Par:   llm.Parallelism{TP: 1, PP: 1, DP: 16, EP: 1, GlobalBatch: 32},
		Scale: 1e-3, Seed: 1,
	}
	// both sides time the full workflow: load serialised trace + simulate
	b.Run("atlahs-lgs", func(b *testing.B) {
		rep, err := llm.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s, err := ncclgoal.Generate(rep, ncclgoal.Config{GPUsPerNode: 4})
		if err != nil {
			b.Fatal(err)
		}
		var bin bytes.Buffer
		if err := goal.WriteBinary(&bin, s); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			loaded, err := goal.ReadBinary(bytes.NewReader(bin.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sched.Run(engine.New(), loaded, backend.NewLGS(backend.AIParams()), sched.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("astra-baseline", func(b *testing.B) {
		tr, err := llm.GenerateChakra(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var bin bytes.Buffer
		if _, err := tr.WriteTo(&bin); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			loaded, err := chakra.ParseBytes(bin.Bytes())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := astraSimulate(loaded); err != nil {
				b.Fatal(err)
			}
		}
	})
}

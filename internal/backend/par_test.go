package backend

import (
	"fmt"
	"testing"

	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/pktnet"
	"atlahs/internal/sched"
	"atlahs/internal/simtime"
	"atlahs/internal/workload/micro"
)

// parWorkloads are the seeded GOAL workloads the equivalence suite runs:
// they cover symmetric bulk traffic, rings with carried dependencies,
// irregular seeded point-to-point traffic with compute, and the rendezvous
// protocol (HPC parameters, sizes above the 256 KB threshold).
func parWorkloads() []struct {
	name   string
	s      *goal.Schedule
	params LogGOPS
} {
	return []struct {
		name   string
		s      *goal.Schedule
		params LogGOPS
	}{
		{"alltoall-16", micro.AllToAll(16, 65536), AIParams()},
		{"ring-32", micro.Ring(32, 4096), AIParams()},
		{"bsp-12x6", micro.BulkSynchronous(12, 6, 32768, 2000), AIParams()},
		{"uniform-random-24", micro.UniformRandom(24, 400, 8192, 7), AIParams()},
		{"incast-17", micro.Incast(17, 16, 1<<20), AIParams()},
		{"rendezvous-bsp-8x4", micro.BulkSynchronous(8, 4, 300_000, 5000), HPCParams()},
	}
}

// sameResult asserts two runs are bit-identical: simulated runtime, every
// rank's completion time, and the executed op count.
func sameResult(t *testing.T, label string, got, want *sched.Result) {
	t.Helper()
	if got.Runtime != want.Runtime {
		t.Fatalf("%s: Runtime %v, want %v", label, got.Runtime, want.Runtime)
	}
	if got.Ops != want.Ops {
		t.Fatalf("%s: Ops %d, want %d", label, got.Ops, want.Ops)
	}
	if len(got.RankEnd) != len(want.RankEnd) {
		t.Fatalf("%s: %d ranks, want %d", label, len(got.RankEnd), len(want.RankEnd))
	}
	for r := range got.RankEnd {
		if got.RankEnd[r] != want.RankEnd[r] {
			t.Fatalf("%s: RankEnd[%d] = %v, want %v", label, r, got.RankEnd[r], want.RankEnd[r])
		}
	}
}

// TestParallelLGSMatchesSerial is the equivalence harness the paper's
// parallelisation claim rests on: for every seeded workload, the parallel
// engine at 1, 2, 4 and 8 workers must produce completion times
// bit-identical to the proven serial engine, and repeated runs must be
// reproducible.
func TestParallelLGSMatchesSerial(t *testing.T) {
	for _, wl := range parWorkloads() {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			lgs := NewLGS(wl.params)
			serial, err := sched.Run(engine.New(), wl.s, lgs, sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkLGSDrained(t, lgs)
			for _, workers := range []int{1, 2, 4, 8} {
				for rep := 0; rep < 2; rep++ {
					lgs := NewLGS(wl.params)
					eng := engine.NewParallel(wl.s.NumRanks(), workers, lgs.Lookahead())
					par, err := sched.Run(eng, wl.s, lgs, sched.Options{})
					if err != nil {
						t.Fatalf("workers=%d rep=%d: %v", workers, rep, err)
					}
					checkLGSDrained(t, lgs)
					sameResult(t, fmt.Sprintf("workers=%d rep=%d", workers, rep), par, serial)
					// The event count is part of the determinism fingerprint:
					// both engines must execute exactly the same events.
					if par.Events != serial.Events {
						t.Fatalf("workers=%d rep=%d: %d events, serial %d", workers, rep, par.Events, serial.Events)
					}
				}
			}
		})
	}
}

// TestParallelCalcScaleMatchesSerial: the hardware adaptation factor must
// behave identically on both engines.
func TestParallelCalcScaleMatchesSerial(t *testing.T) {
	s := micro.BulkSynchronous(8, 3, 8192, 4000)
	opts := sched.Options{CalcScale: 2.5}
	serial, err := sched.Run(engine.New(), s, NewLGS(AIParams()), opts)
	if err != nil {
		t.Fatal(err)
	}
	lgs := NewLGS(AIParams())
	par, err := sched.Run(engine.NewParallel(s.NumRanks(), 4, lgs.Lookahead()), s, lgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "calc-scale", par, serial)
}

// TestSharedFabricBackendRejectsParallelEngine: the congestion-aware
// backends share fabric state, so handing one a parallel engine is an
// error at Setup, not a race later. (Engine selection itself lives in
// sim.Run, which refuses the worker request before it gets this far.)
func TestSharedFabricBackendRejectsParallelEngine(t *testing.T) {
	s := micro.Ring(8, 4096)
	pb := newPkt(pktnet.Config{Topo: mkTopo(t, 8), CC: "mprdma", Seed: 3})
	pe := engine.NewParallel(8, 4, simtime.Microsecond)
	if _, err := sched.Run(pe, s, pb, sched.Options{}); err == nil {
		t.Fatal("pkt backend accepted a parallel engine")
	}
}

package sim

import (
	"context"
	"testing"

	"atlahs/internal/backend"
	"atlahs/internal/engine"
	"atlahs/internal/fluid"
	"atlahs/internal/goal"
	"atlahs/internal/pktnet"
	"atlahs/internal/sched"
	"atlahs/internal/topo"
	"atlahs/internal/workload/micro"
)

// sameAsSched pins a facade Result bit-identical to a hand-wired scheduler
// result: simulated runtime, every rank's completion time, op and event
// counts.
func sameAsSched(t *testing.T, label string, got *Result, want *sched.Result) {
	t.Helper()
	if got.Runtime != want.Runtime {
		t.Fatalf("%s: Runtime %v, want %v", label, got.Runtime, want.Runtime)
	}
	if got.Ops != want.Ops {
		t.Fatalf("%s: Ops %d, want %d", label, got.Ops, want.Ops)
	}
	if got.Events != want.Events {
		t.Fatalf("%s: Events %d, want %d", label, got.Events, want.Events)
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

// goldenWorkloads are the schedules the facade equivalence suite runs;
// they cover symmetric bulk traffic, rings with carried dependencies,
// seeded irregular traffic with compute, and the rendezvous protocol.
func goldenWorkloads() map[string]*goal.Schedule {
	return map[string]*goal.Schedule{
		"alltoall-16": micro.AllToAll(16, 65536),
		"ring-24":     micro.Ring(24, 4096),
		"bsp-12x4":    micro.BulkSynchronous(12, 4, 32768, 2000),
		"uniform-16":  micro.UniformRandom(16, 200, 8192, 7),
	}
}

// TestGoldenLGSSerial: sim.Run on "lgs" must be bit-identical to the old
// hand-wired sched.Run(engine.New(), ...) path.
func TestGoldenLGSSerial(t *testing.T) {
	for name, s := range goldenWorkloads() {
		for _, params := range []LogGOPS{AIParams(), HPCParams()} {
			want, err := sched.Run(engine.New(), s, backend.NewLGS(params), sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(context.Background(), Spec{Workload: Workload{Schedule: s},
				Backend: "lgs",
				Config:  LGSConfig{Params: params}})
			if err != nil {
				t.Fatal(err)
			}
			sameAsSched(t, name, got, want)
			if got.Parallel || got.Workers != 1 {
				t.Fatalf("%s: serial spec ran parallel=%v workers=%d", name, got.Parallel, got.Workers)
			}
		}
	}
}

// TestGoldenLGSParallel: sim.Run with Workers=4 must match hand-wiring
// the 4-worker lane engine bit for bit (which in turn matches serial — the
// engine equivalence suite in internal/backend pins that).
func TestGoldenLGSParallel(t *testing.T) {
	for name, s := range goldenWorkloads() {
		lgs := backend.NewLGS(AIParams())
		want, err := sched.Run(engine.NewParallel(s.NumRanks(), 4, lgs.Lookahead()), s, lgs, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(context.Background(), Spec{Workload: Workload{Schedule: s},
			Backend: "lgs",
			Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		sameAsSched(t, name, got, want)
		if !got.Parallel || got.Workers != 4 {
			t.Fatalf("%s: want the 4-worker parallel engine, got parallel=%v workers=%d", name, got.Parallel, got.Workers)
		}
	}
}

// fatTree8 hand-builds the fabric that PktConfig/FluidConfig{HostsPerToR:
// 4, Oversub: 1} size for 8 ranks: two ToRs, four cores, default links.
func fatTree8(t *testing.T) *Topology {
	t.Helper()
	tp, err := topo.NewFatTree(topo.FatTreeConfig{Hosts: 8, HostsPerToR: 4, Cores: 4, Link: topo.DefaultLinkSpec()})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestGoldenPkt: sim.Run on "pkt" with declarative fat-tree sizing must be
// bit-identical to hand-wiring the topology, backend and serial engine.
func TestGoldenPkt(t *testing.T) {
	s := micro.AllToAll(8, 32768)
	tp := fatTree8(t)
	pb := backend.NewNet("pkt", backend.DefaultNetParams(), backend.Fabric{}, func(eng *engine.Engine, _ backend.MessageNet) (backend.MessageNet, error) {
		return pktnet.New(eng, pktnet.Config{Topo: tp, CC: "mprdma", Seed: 3})
	})
	want, err := sched.Run(engine.New(), s, pb, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), Spec{Workload: Workload{Schedule: s},
		Backend: "pkt",
		Config:  PktConfig{HostsPerToR: 4, Oversub: 1, CC: "mprdma", Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	sameAsSched(t, "pkt alltoall-8", got, want)
	if got.Net == nil {
		t.Fatal("pkt run lost its fabric counters")
	}
	if got.Net.PktsSent == 0 || *got.Net != *pb.NetStats() {
		t.Fatalf("pkt counters diverged: %+v vs %+v", *got.Net, *pb.NetStats())
	}
}

// TestGoldenFluid: sim.Run on "fluid" with jitter and overheads must match
// the hand-wired path.
func TestGoldenFluid(t *testing.T) {
	s := micro.BulkSynchronous(8, 3, 32768, 2000)
	tp := fatTree8(t)
	fb := backend.NewNet("fluid", backend.DefaultNetParams(), backend.Fabric{}, func(eng *engine.Engine, _ backend.MessageNet) (backend.MessageNet, error) {
		return fluid.New(eng, fluid.Config{Topo: tp, Overhead: 1500, JitterFrac: 0.03, Seed: 6})
	})
	want, err := sched.Run(engine.New(), s, fb, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), Spec{Workload: Workload{Schedule: s},
		Backend: "fluid",
		Config: FluidConfig{
			HostsPerToR: 4,
			Oversub:     1,
			Overhead:    1500,
			JitterFrac:  0.03,
			Seed:        6,
		}})
	if err != nil {
		t.Fatal(err)
	}
	sameAsSched(t, "fluid bsp-8x3", got, want)
}

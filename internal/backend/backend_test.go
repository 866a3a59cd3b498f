package backend

import (
	"strings"
	"testing"
	"testing/quick"

	"atlahs/internal/core"
	"atlahs/internal/engine"
	"atlahs/internal/fluid"
	"atlahs/internal/goal"
	"atlahs/internal/pktnet"
	"atlahs/internal/sched"
	"atlahs/internal/simtime"
	"atlahs/internal/topo"
	"atlahs/internal/xrand"
)

// pingSchedule: rank 0 sends size bytes to rank 1.
func pingSchedule(size int64) *goal.Schedule {
	b := goal.NewBuilder(2)
	b.Rank(0).Send(size, 1, 0)
	b.Rank(1).Recv(size, 0, 0)
	return b.MustBuild()
}

func runLGS(t *testing.T, s *goal.Schedule, p LogGOPS) *sched.Result {
	t.Helper()
	res, err := sched.Run(engine.New(), s, NewLGS(p), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLGSEagerPingExact(t *testing.T) {
	// AI params: o=200ns, L=3700ns, G=40ps/B, S=0 (eager).
	// send: cpu [0,200ns]; inject at 200ns; arrival = 200ns + 8*0.04ns +
	// 3700ns = 3900.32ns; recv completes at arrival + o = 4100.32ns.
	res := runLGS(t, pingSchedule(8), AIParams())
	want := simtime.Duration(4100320) // ps
	if res.Runtime != want {
		t.Fatalf("runtime = %v (%d ps), want %d ps", res.Runtime, int64(res.Runtime), int64(want))
	}
}

func TestLGSRendezvousPingExact(t *testing.T) {
	// HPC params: o=6000ns, L=3000ns, G=180ps/B, S=256000 — a 256000-byte
	// send uses rendezvous:
	// cpuEnd=6000ns; RTS arrives 9000ns (recv already posted);
	// CTS at sender 12000ns; wire done = 12000ns + 256000*0.18ns = 58080ns;
	// arrival = 61080ns; recv completes 67080ns.
	res := runLGS(t, pingSchedule(256000), HPCParams())
	want := 67080 * simtime.Nanosecond
	if res.Runtime != want {
		t.Fatalf("runtime = %v, want %v", res.Runtime, want)
	}
}

func TestLGSEagerBelowThreshold(t *testing.T) {
	// 1000 bytes < S=256000: eager even with HPC params.
	// cpuEnd=6000ns; arrival = 6000 + 180 + 3000 = 9180ns; recv end = 15180ns.
	res := runLGS(t, pingSchedule(1000), HPCParams())
	want := 15180 * simtime.Nanosecond
	if res.Runtime != want {
		t.Fatalf("runtime = %v, want %v", res.Runtime, want)
	}
}

func TestLGSCalcStreams(t *testing.T) {
	// two calcs on the same stream serialise; on distinct streams they
	// overlap (paper Fig 3 semantics).
	same := goal.NewBuilder(1)
	same.Rank(0).Calc(100)
	same.Rank(0).Calc(100)
	resSame := runLGS(t, same.MustBuild(), AIParams())
	if resSame.Runtime != 200*simtime.Nanosecond {
		t.Fatalf("same-stream runtime %v, want 200ns", resSame.Runtime)
	}
	diff := goal.NewBuilder(1)
	diff.Rank(0).CalcOn(100, 0)
	diff.Rank(0).CalcOn(100, 1)
	resDiff := runLGS(t, diff.MustBuild(), AIParams())
	if resDiff.Runtime != 100*simtime.Nanosecond {
		t.Fatalf("two-stream runtime %v, want 100ns", resDiff.Runtime)
	}
}

func TestLGSNicGapSerialisesSends(t *testing.T) {
	// Two sends from rank 0 on different streams: CPU overheads overlap but
	// the single NIC serialises injections with gap g + size*G.
	b := goal.NewBuilder(2)
	b.Rank(0).SendOn(100000, 1, 0, 0)
	b.Rank(0).SendOn(100000, 1, 1, 1)
	b.Rank(1).Recv(100000, 0, 0)
	b.Rank(1).Recv(100000, 0, 1)
	res := runLGS(t, b.MustBuild(), AIParams())
	// injections: first at 200ns..200+5+4000, second waits for NIC:
	// starts 4205ns, wire done 8205ns, arrival 11905ns, recv +200 = 12105ns.
	want := 12105 * simtime.Nanosecond
	if res.Runtime != want {
		t.Fatalf("runtime %v, want %v", res.Runtime, want)
	}
}

func TestLGSDependencyChain(t *testing.T) {
	// calc -> send on rank 0; recv -> calc on rank 1.
	b := goal.NewBuilder(2)
	r0 := b.Rank(0)
	c := r0.Calc(1000)
	s := r0.Send(8, 1, 0)
	r0.Requires(s, c)
	r1 := b.Rank(1)
	rc := r1.Recv(8, 0, 0)
	c2 := r1.Calc(500)
	r1.Requires(c2, rc)
	res := runLGS(t, b.MustBuild(), AIParams())
	// send cpu [1000,1200]; arrival 1200+0.32+3700 = 4900.32ns; recv end
	// 5100.32ns; calc end 5600.32ns.
	want := simtime.Duration(5600320)
	if res.Runtime != want {
		t.Fatalf("runtime %v (%d ps), want %d", res.Runtime, int64(res.Runtime), int64(want))
	}
}

func TestSchedIRequires(t *testing.T) {
	// b irequires a: b may start once a starts, so equal-length calcs on
	// different streams finish together.
	bld := goal.NewBuilder(1)
	r := bld.Rank(0)
	a := r.CalcOn(1000, 0)
	c := r.CalcOn(1000, 1)
	r.IRequires(c, a)
	res := runLGS(t, bld.MustBuild(), AIParams())
	if res.Runtime != 1000*simtime.Nanosecond {
		t.Fatalf("irequires runtime %v, want 1000ns (parallel)", res.Runtime)
	}
}

func TestSchedDeadlockDetection(t *testing.T) {
	// recv with no matching send
	b := goal.NewBuilder(2)
	b.Rank(1).Recv(8, 0, 0)
	_, err := sched.Run(engine.New(), b.Build(), NewLGS(AIParams()), sched.Options{})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("deadlock not detected: %v", err)
	}
}

func TestSchedWildcardRecv(t *testing.T) {
	b := goal.NewBuilder(2)
	b.Rank(0).Send(64, 1, 42)
	b.Rank(1).Recv(64, 0, goal.AnyTag)
	if _, err := sched.Run(engine.New(), b.MustBuild(), NewLGS(AIParams()), sched.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestCalcScale(t *testing.T) {
	b := goal.NewBuilder(1)
	b.Rank(0).Calc(1000)
	res, err := sched.Run(engine.New(), b.MustBuild(), NewLGS(AIParams()), sched.Options{CalcScale: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime != 2500*simtime.Nanosecond {
		t.Fatalf("scaled runtime %v, want 2500ns", res.Runtime)
	}
}

// mkTopo builds a fat tree of hosts hosts (a multiple of 4), 4 per ToR,
// with 4 cores.
func mkTopo(t testing.TB, hosts int) *topo.Topology {
	t.Helper()
	tp, err := topo.NewFatTree(topo.FatTreeConfig{Hosts: hosts, HostsPerToR: 4, Cores: 4, Link: topo.DefaultLinkSpec()})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// newPkt builds the packet-level backend over cfg.Net, as sim's "pkt"
// factory does.
func newPkt(cfg pktnet.Config) *NetBackend {
	return NewNet("pkt", DefaultNetParams(), func(eng *engine.Engine) (MessageNet, error) {
		return pktnet.New(eng, cfg)
	})
}

// newFluid builds the fluid backend over tp, as sim's "fluid" factory does.
func newFluid(tp *topo.Topology) *NetBackend {
	return NewNet("fluid", DefaultNetParams(), func(eng *engine.Engine) (MessageNet, error) {
		return fluid.New(eng, fluid.Config{Topo: tp})
	})
}

// ringSchedule builds a neighbour-exchange ring with per-rank calcs.
func ringSchedule(n int, size int64) *goal.Schedule {
	b := goal.NewBuilder(n)
	for r := 0; r < n; r++ {
		rb := b.Rank(r)
		c := rb.Calc(10000)
		s := rb.Send(size, (r+1)%n, 0)
		rb.Requires(s, c)
		rb.Recv(size, (r+n-1)%n, 0)
	}
	return b.MustBuild()
}

func TestAllBackendsRunRing(t *testing.T) {
	s := ringSchedule(8, 128*1024)
	// LGS
	resLGS, err := sched.Run(engine.New(), s, NewLGS(AIParams()), sched.Options{})
	if err != nil {
		t.Fatalf("lgs: %v", err)
	}
	// Pkt
	pb := newPkt(pktnet.Config{Topo: mkTopo(t, 8), Seed: 1})
	resPkt, err := sched.Run(engine.New(), s, pb, sched.Options{})
	if err != nil {
		t.Fatalf("pkt: %v", err)
	}
	if pb.NetStats().MsgsCompleted != 8 {
		t.Fatalf("pkt delivered %d messages, want 8", pb.NetStats().MsgsCompleted)
	}
	// Fluid
	fb := newFluid(mkTopo(t, 8))
	resFluid, err := sched.Run(engine.New(), s, fb, sched.Options{})
	if err != nil {
		t.Fatalf("fluid: %v", err)
	}
	if err := fb.Drained(); err != nil {
		t.Fatalf("fluid: %v", err)
	}
	// All three should be in the same ballpark: calc 10us + ~128KiB transfer
	for name, res := range map[string]*sched.Result{"lgs": resLGS, "pkt": resPkt, "fluid": resFluid} {
		if res.Runtime < 10*simtime.Microsecond || res.Runtime > 100*simtime.Microsecond {
			t.Errorf("%s runtime %v outside sanity range", name, res.Runtime)
		}
	}
}

// TestPktBackendTopologyTooSmall: a fabric with fewer hosts than the
// schedule has ranks is refused at Setup, naming both counts, on either
// network.
func TestPktBackendTopologyTooSmall(t *testing.T) {
	s := ringSchedule(32, 1024)
	for _, b := range []*NetBackend{newPkt(pktnet.Config{Topo: mkTopo(t, 4)}), newFluid(mkTopo(t, 4))} {
		_, err := sched.Run(engine.New(), s, b, sched.Options{})
		if err == nil || !strings.Contains(err.Error(), b.Name()+" backend: topology has 4 hosts for 32 ranks") {
			t.Errorf("%s: undersized topology: %v", b.Name(), err)
		}
	}
}

// Property: random matched schedules complete on the LGS backend and the
// runtime is at least the critical-path calc time of any single stream.
func TestLGSCompletesRandomSchedulesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := rng.Intn(6) + 2
		b := goal.NewBuilder(n)
		// ring of sends + random calcs, always matched
		for r := 0; r < n; r++ {
			rb := b.Rank(r)
			var prev goal.OpID = -1
			for k := 0; k < rng.Intn(5); k++ {
				c := rb.Calc(rng.Int63n(5000))
				if prev >= 0 {
					rb.Requires(c, prev)
				}
				prev = c
			}
			s := rb.Send(rng.Int63n(1<<16)+1, (r+1)%n, int32(r))
			if prev >= 0 {
				rb.Requires(s, prev)
			}
			rb.Recv(rng.Int63n(1)+1, (r+n-1)%n, goal.AnyTag)
		}
		// fix recv sizes to match send sizes (peer's send)
		sch := b.MustBuild()
		lgs := NewLGS(AIParams())
		res, err := sched.Run(engine.New(), sch, lgs, sched.Options{})
		if err != nil {
			return false
		}
		checkLGSDrained(t, lgs)
		return res.Ops == int64(sch.ComputeStats().Ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLGSvsPktCloseOnProvisionedFatTree(t *testing.T) {
	// On a fully provisioned topology with computation masking, message-
	// level and packet-level predictions should be close (paper §6.2 says
	// 1-2%; we accept 15% for this small synthetic case).
	s := ringSchedule(8, 512*1024)
	resLGS, err := sched.Run(engine.New(), s, NewLGS(AIParams()), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pb := newPkt(pktnet.Config{Topo: mkTopo(t, 8), Seed: 3})
	resPkt, err := sched.Run(engine.New(), s, pb, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Drained(); err != nil {
		t.Fatal(err)
	}
	lo, hi := float64(resLGS.Runtime)*0.6, float64(resLGS.Runtime)*1.6
	if f := float64(resPkt.Runtime); f < lo || f > hi {
		t.Fatalf("pkt %v vs lgs %v diverge too much", resPkt.Runtime, resLGS.Runtime)
	}
}

// TestNetBackendSteadyStateAllocs is the allocation gate for the packet
// backend end to end: once warm, a one-packet message — send issued,
// overhead paid, packets and ACK across the fabric, delivered, matched,
// receive completed — costs at most 2 heap objects (amortised growth of
// the matcher's queues; the packet path itself allocates nothing).
func TestNetBackendSteadyStateAllocs(t *testing.T) {
	for _, cc := range []string{"mprdma", "ndp"} {
		b := newPkt(pktnet.Config{Topo: mkTopo(t, 8), CC: cc})
		eng := engine.New()
		completed := 0
		if err := b.Setup(8, eng, func(core.Handle, simtime.Time) { completed++ }); err != nil {
			t.Fatal(err)
		}
		message := func() {
			b.Send(core.SendEvent{Handle: core.MakeHandle(1, 0), Src: 1, Dst: 6, Size: 870, Tag: 5})
			b.Recv(core.RecvEvent{Handle: core.MakeHandle(6, 0), Src: 1, Dst: 6, Size: 870, Tag: 5})
			b.Calc(core.CalcEvent{Handle: core.MakeHandle(6, 1), Rank: 6, Duration: simtime.Microsecond})
			eng.Run()
		}
		for i := 0; i < 8; i++ {
			message()
		}
		got := testing.AllocsPerRun(50, message)
		t.Logf("%s: %v allocations per message", cc, got)
		if got > 2 {
			t.Errorf("%s: %v allocations per message in steady state, want <= 2", cc, got)
		}
		if want := 3 * (8 + 51); completed != want {
			t.Fatalf("%s: %d completions, want %d", cc, completed, want)
		}
		if st := b.NetStats(); st.MsgsCompleted != 8+51 || st.Drops+st.Trims != 0 {
			t.Fatalf("%s: %+v", cc, st)
		}
	}
}

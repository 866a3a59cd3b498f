package pktnet

import (
	"runtime"
	"testing"
	"testing/quick"

	"atlahs/internal/engine"
	"atlahs/internal/simtime"
	"atlahs/internal/stats"
	"atlahs/internal/xrand"
)

// pktOutcome is everything a run of the packet simulator lets the rest of
// ATLAHS observe.
type pktOutcome struct {
	last      simtime.Time // time of the last delivery
	stats     Stats
	processed uint64  // engine events
	mctSumUs  float64 // sum of the MCT samples, in event order
}

// Fabrics of the pinned table: all 16 hosts, 8 per ToR.
const (
	fabPermutation = "permutation"    // 8 cores, 1 MiB buffers, cross-core permutation: no loss
	fabDeepIncast  = "deep-incast"    // the same fabric, 15:1 incast: deep queues, drops, spurious RTOs and duplicate ACKs
	fabOversub     = "oversub-incast" // 1 core (8:1), 16 KiB buffers, 15:1 incast: drops / trims on every hop
)

// pinnedRun drives three waves of mixed traffic — fifteen 64-packet
// messages plus forty-eight one-packet messages each, the later waves
// arriving while records of the earlier ones are being recycled — and
// returns the outcome.
func pinnedRun(t testing.TB, alg, fabric string) (pktOutcome, *Network) {
	cores, buf := 8, int64(0)
	if fabric == fabOversub {
		cores, buf = 1, 16*1024
	}
	eng := engine.New()
	n, err := New(eng, Config{Topo: testTopo(t, 16, 8, cores, buf), CC: alg, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n.MCT = &stats.Sample{}
	var out pktOutcome
	done := func(at simtime.Time) {
		if at > out.last {
			out.last = at
		}
	}
	wave := func(k int) {
		for src := 1; src < 16; src++ {
			dst := 0
			if fabric == fabPermutation {
				dst = (src + 8) % 16
			}
			n.Send(src, dst, 64*4096-int64(k), done)
		}
		for i := 0; i < 48; i++ {
			src := (i + k) % 16
			dst := (i*7 + 3 + k) % 16
			if dst == src {
				dst = (dst + 1) % 16
			}
			n.Send(src, dst, 870+int64(i), done)
		}
	}
	wave(0)
	eng.Schedule(simtime.Time(40*simtime.Microsecond), func() { wave(1) })
	eng.Schedule(simtime.Time(2*simtime.Millisecond), func() { wave(2) })
	eng.Run()
	out.stats = n.Stats
	out.processed = eng.Processed
	out.mctSumUs = n.MCT.Mean() * float64(n.MCT.N())
	return out, n
}

// TestPktOutcomesPinned holds the simulator to outcomes recorded at commit
// 4199d84, before ports, pipes and timers became event sources and packets
// and flow records were recycled: the same events must fire in the same
// order, so every number is equal, not close.
func TestPktOutcomesPinned(t *testing.T) {
	pinned := []struct {
		alg, fabric string
		want        pktOutcome
	}{
		{"mprdma", fabPermutation, pktOutcome{2034491480, Stats{3024, 3024, 0, 0, 3024, 0, 189}, 50834, 1921.8441200000002}},
		{"mprdma", fabDeepIncast, pktOutcome{2300850320, Stats{7987, 3024, 2210, 0, 5777, 4963, 189}, 89693, 20844.432440000008}},
		{"mprdma", fabOversub, pktOutcome{2201324680, Stats{4479, 3024, 1455, 0, 3024, 1455, 189}, 43541, 10328.21732}},
		{"swift", fabPermutation, pktOutcome{2034491480, Stats{3024, 3024, 0, 0, 3024, 0, 189}, 50834, 1915.1653200000003}},
		{"swift", fabDeepIncast, pktOutcome{2202031560, Stats{6619, 3024, 1645, 0, 4974, 3595, 189}, 75567, 19453.511319999994}},
		{"swift", fabOversub, pktOutcome{2205196960, Stats{4673, 3024, 1649, 0, 3024, 1649, 189}, 44433, 10225.552919999996}},
		{"dctcp", fabPermutation, pktOutcome{2034491480, Stats{3024, 3024, 0, 0, 3024, 0, 189}, 50834, 1921.8492800000001}},
		{"dctcp", fabDeepIncast, pktOutcome{2300018400, Stats{7969, 3024, 2318, 0, 5651, 4945, 189}, 88627, 21012.25915999999}},
		{"dctcp", fabOversub, pktOutcome{2195982920, Stats{4449, 3024, 1425, 0, 3024, 1425, 189}, 43457, 10530.029199999997}},
		{"ndp", fabPermutation, pktOutcome{2016090640, Stats{3024, 3024, 0, 0, 2835, 0, 189}, 49421, 1632.8212399999995}},
		{"ndp", fabDeepIncast, pktOutcome{2161178360, Stats{3470, 3024, 0, 446, 3727, 446, 189}, 48583, 11402.317479999996}},
		{"ndp", fabOversub, pktOutcome{2202019360, Stats{4062, 3024, 0, 1038, 4911, 1038, 189}, 61355, 12370.766759999997}},
	}
	for _, c := range pinned {
		t.Run(c.alg+"/"+c.fabric, func(t *testing.T) {
			got, n := pinnedRun(t, c.alg, c.fabric)
			if got != c.want {
				t.Errorf("outcome moved:\n got  %+v\n want %+v", got, c.want)
			}
			checkDrained(t, n)
		})
	}
}

// checkDrained verifies the ownership rules once the engine has run dry:
// Drained, and no packet or flow record on its free list twice.
func checkDrained(t testing.TB, n *Network) {
	t.Helper()
	if err := n.Drained(); err != nil {
		t.Fatal(err)
	}
	pkts := map[*packet]bool{}
	for _, p := range n.freePkts {
		if pkts[p] {
			t.Fatal("packet on the free list twice")
		}
		pkts[p] = true
	}
	flows := map[*flow]bool{}
	for _, f := range n.freeFlows {
		if flows[f] {
			t.Fatal("flow record on the free list twice")
		}
		flows[f] = true
	}
}

// Property: under drops and NDP trims — small buffers, incast, one-packet
// and 64-packet messages mixed, new messages starting while old records
// are recycled — every message is delivered exactly once, every packet
// exactly once, and nothing leaks or is released twice. A handler that saw
// a recycled record would panic on its cleared fields.
func TestLossyDeliveryAndRecycling(t *testing.T) {
	for _, alg := range []string{"mprdma", "swift", "dctcp", "ndp"} {
		t.Run(alg, func(t *testing.T) {
			f := func(seed uint64) bool {
				rng := xrand.New(seed)
				eng := engine.New()
				n, err := New(eng, Config{Topo: testTopo(t, 16, 8, 1+rng.Intn(2), int64(8+rng.Intn(24))*1024), CC: alg, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				var msgs, wantPkts uint64
				delivered := map[int]int{}
				send := func(src, dst int, size int64) {
					id := int(msgs)
					msgs++
					wantPkts += uint64((size + 4095) / 4096)
					n.Send(src, dst, size, func(simtime.Time) { delivered[id]++ })
				}
				for w := 0; w < 4; w++ {
					victim := rng.Intn(16)
					at := simtime.Time(rng.Int63n(int64(300 * simtime.Microsecond)))
					eng.Schedule(at, func() {
						for src := 0; src < 16; src++ {
							if src == victim {
								continue
							}
							size := int64(1 + rng.Intn(4096))
							if rng.Intn(3) == 0 {
								size = 64 * 4096
							}
							send(src, victim, size)
						}
					})
				}
				eng.Run()
				for id := 0; id < int(msgs); id++ {
					if delivered[id] != 1 {
						t.Errorf("seed %d: message %d delivered %d times", seed, id, delivered[id])
					}
				}
				if n.Stats.MsgsCompleted != msgs || n.Stats.PktsDelivered != wantPkts {
					t.Errorf("seed %d: %d/%d messages, %d/%d packets delivered", seed, n.Stats.MsgsCompleted, msgs, n.Stats.PktsDelivered, wantPkts)
				}
				if n.Stats.Drops+n.Stats.Trims == 0 {
					t.Errorf("seed %d: no drops or trims: the loss path was not exercised", seed)
				}
				checkDrained(t, n)
				return !t.Failed()
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A stale holder must fail loudly: a packet released twice panics, and a
// recycled packet names no flow.
func TestStaleRecordUsePanics(t *testing.T) {
	_, n := newNet(t, testTopo(t, 4, 2, 2, 0), "mprdma")
	f := n.newFlow(1, 0, 1, 100, nil)
	p := n.newPacket(f, pktAck, 0, 64)
	f.delivered = true
	n.freePacket(p)
	f.unref()
	if len(n.freeFlows) != 1 || len(n.freePkts) != 1 {
		t.Fatalf("records not recycled: %d flows, %d packets", len(n.freeFlows), len(n.freePkts))
	}
	for name, stale := range map[string]func(){
		"second packet release":        func() { n.freePacket(p) },
		"second flow release":          func() { f.unref() },
		"arrival of a recycled packet": func() { n.arrive(p) },
		"ack for a recycled flow":      func() { f.onAck(&packet{flow: f}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			stale()
		}()
	}
}

// TestPktSteadyStateAllocs is the allocation gate: once a Network has
// carried a message over every path, carrying another allocates nothing —
// whatever its length, because ports, pipes, timers, packets and the flow
// record are all reused. A window transport hashes each new flow onto one
// of the fabric's paths, and a port's ring grows the first time a flow
// reaches it, so a round of one-packet messages as long as the measured
// one warms the paths first. Mallocs are counted exactly: AllocsPerRun
// truncates its mean, so 16 mallocs over 20 messages read as 0.
func TestPktSteadyStateAllocs(t *testing.T) {
	const runs = 20
	for _, alg := range []string{"mprdma", "ndp"} {
		eng, n := newNet(t, testTopo(t, 16, 4, 4, 0), alg)
		delivered := 0
		done := func(simtime.Time) { delivered++ }
		carry := func(size int64, messages int) func() {
			return func() {
				for range messages {
					n.Send(0, 15, size, done)
					eng.Run()
				}
			}
		}
		carry(256*4096, 1)() // warm: ring depths, packet pool, per-packet flags
		carry(870, runs+1)() // warm: every port the measured flows' paths reach
		one := mallocs(carry(870, runs))
		long := mallocs(carry(256*4096, runs))
		if one != 0 || long != 0 {
			t.Errorf("%s: %d mallocs over %d 1-packet messages, %d over %d 256-packet messages; want 0", alg, one, runs, long, runs)
		}
		if want := 1 + 3*runs + 1; delivered != want {
			t.Fatalf("%s: %d/%d messages delivered", alg, delivered, want)
		}
		checkDrained(t, n)
	}
}

// mallocs counts the heap objects f allocates exactly, on one P, as
// AllocsPerRun does.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

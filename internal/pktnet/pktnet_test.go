package pktnet

import (
	"testing"
	"testing/quick"

	"atlahs/internal/engine"
	"atlahs/internal/simtime"
	"atlahs/internal/topo"
	"atlahs/internal/xrand"
)

func testTopo(t testing.TB, hosts, perTor, cores int, buf int64) *topo.Topology {
	t.Helper()
	spec := topo.DefaultLinkSpec()
	if buf > 0 {
		spec.BufBytes = buf
	}
	tp, err := topo.NewFatTree(topo.FatTreeConfig{
		Hosts: hosts, HostsPerToR: perTor, Cores: cores,
		Link: spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func newNet(t testing.TB, tp *topo.Topology, ccName string) (*engine.Engine, *Network) {
	t.Helper()
	eng := engine.New()
	n, err := New(eng, Config{Topo: tp, CC: ccName, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return eng, n
}

func TestConfigValidation(t *testing.T) {
	eng := engine.New()
	if _, err := New(eng, Config{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := New(eng, Config{Topo: testTopo(t, 4, 2, 2, 0), CC: "bogus"}); err == nil {
		t.Fatal("unknown CC accepted")
	}
	// A port that cannot hold one whole packet never forwards one: a
	// sender would retransmit into it forever.
	for buf, ok := range map[int64]bool{1: false, mtu + header - 1: false, mtu + header: true} {
		_, err := New(eng, Config{Topo: testTopo(t, 4, 2, 2, buf)})
		if (err == nil) != ok {
			t.Errorf("buffer %d B: error %v, accepted %v", buf, err, ok)
		}
	}
}

func TestSingleMessageTiming(t *testing.T) {
	tp := testTopo(t, 4, 2, 2, 0)
	eng, n := newNet(t, tp, "mprdma")
	const size = 1 << 20 // 1 MiB
	var done simtime.Time
	n.Send(0, 3, size, func(at simtime.Time) { done = at })
	eng.Run()
	if done == 0 {
		t.Fatal("message not delivered")
	}
	// Lower bound: serialisation of the payload at 40 ps/B on the access
	// link plus one-way path latency (4 hops x 500 ns).
	lower := simtime.Duration(size)*40 + 4*500*simtime.Nanosecond
	if simtime.Duration(done) < lower {
		t.Fatalf("delivered at %v, faster than physics lower bound %v", done, lower)
	}
	// Upper bound: should be within 3x of ideal on an idle network.
	if simtime.Duration(done) > 3*lower {
		t.Fatalf("delivered at %v, more than 3x ideal %v on idle network", done, lower)
	}
	if n.Stats.Drops != 0 {
		t.Fatalf("%d drops on idle network", n.Stats.Drops)
	}
}

func TestAllCCAlgorithmsComplete(t *testing.T) {
	for _, alg := range []string{"mprdma", "swift", "dctcp", "ndp"} {
		t.Run(alg, func(t *testing.T) {
			tp := testTopo(t, 8, 4, 2, 0)
			eng, n := newNet(t, tp, alg)
			delivered := 0
			// all-to-one incast plus a permutation flow
			for src := 1; src < 8; src++ {
				n.Send(src, 0, 256*1024, func(simtime.Time) { delivered++ })
			}
			n.Send(0, 4, 128*1024, func(simtime.Time) { delivered++ })
			eng.Run()
			if delivered != 8 {
				t.Fatalf("%s: delivered %d/8 messages", alg, delivered)
			}
		})
	}
}

func TestIncastCongestionSlowsCompletion(t *testing.T) {
	tp := testTopo(t, 8, 4, 2, 0)
	// single flow baseline
	eng1, n1 := newNet(t, tp, "mprdma")
	var solo simtime.Time
	n1.Send(1, 0, 512*1024, func(at simtime.Time) { solo = at })
	eng1.Run()

	// 7:1 incast: same-size flow must take notably longer
	tp2 := testTopo(t, 8, 4, 2, 0)
	eng2, n2 := newNet(t, tp2, "mprdma")
	var last simtime.Time
	for src := 1; src < 8; src++ {
		n2.Send(src, 0, 512*1024, func(at simtime.Time) {
			if at > last {
				last = at
			}
		})
	}
	eng2.Run()
	if last < 3*solo {
		t.Fatalf("incast completion %v not >> solo %v", last, solo)
	}
}

func TestDropsUnderPressureAndNDPTrims(t *testing.T) {
	// Tiny buffers force queue overflow under incast.
	tpA := testTopo(t, 8, 4, 2, 16*1024)
	engA, nA := newNet(t, tpA, "mprdma")
	okA := 0
	for src := 1; src < 8; src++ {
		nA.Send(src, 0, 256*1024, func(simtime.Time) { okA++ })
	}
	engA.Run()
	if okA != 7 {
		t.Fatalf("mprdma delivered %d/7 under pressure", okA)
	}
	if nA.Stats.Drops == 0 {
		t.Fatal("expected drops with 16 KiB buffers under incast")
	}
	if nA.Stats.Trims != 0 {
		t.Fatal("non-NDP must drop, not trim")
	}

	tpB := testTopo(t, 8, 4, 2, 16*1024)
	engB, nB := newNet(t, tpB, "ndp")
	okB := 0
	for src := 1; src < 8; src++ {
		nB.Send(src, 0, 256*1024, func(simtime.Time) { okB++ })
	}
	engB.Run()
	if okB != 7 {
		t.Fatalf("ndp delivered %d/7 under pressure", okB)
	}
	if nB.Stats.Trims == 0 {
		t.Fatal("NDP should trim under incast with tiny buffers")
	}
	if nB.Stats.Drops != 0 {
		t.Fatal("NDP must never drop data packets")
	}
}

func TestRTORecovery(t *testing.T) {
	// Extremely small buffers and aggressive incast: drops are certain (the
	// configuration is deterministic); all messages must still complete
	// via RTO retransmission.
	for _, alg := range []string{"mprdma", "swift", "dctcp"} {
		t.Run(alg, func(t *testing.T) {
			tp := testTopo(t, 16, 8, 1, 8*1024)
			eng, n := newNet(t, tp, alg)
			ok := 0
			for src := 1; src < 16; src++ {
				n.Send(src, 0, 64*1024, func(simtime.Time) { ok++ })
			}
			eng.Run()
			if ok != 15 {
				t.Fatalf("delivered %d/15 with drops", ok)
			}
			if n.Stats.Drops == 0 {
				t.Fatal("no drops triggered: the RTO path is not exercised")
			}
			if n.Stats.Retransmits < n.Stats.Drops {
				t.Fatalf("%d drops but only %d retransmissions", n.Stats.Drops, n.Stats.Retransmits)
			}
			checkDrained(t, n)
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (simtime.Time, Stats) {
		tp := testTopo(t, 8, 4, 2, 32*1024)
		eng, n := newNet(t, tp, "mprdma")
		var last simtime.Time
		for src := 1; src < 8; src++ {
			n.Send(src, 0, 200*1024, func(at simtime.Time) { last = at })
		}
		eng.Run()
		return last, n.Stats
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("non-deterministic: %v/%+v vs %v/%+v", t1, s1, t2, s2)
	}
}

func TestSelfSendPanics(t *testing.T) {
	tp := testTopo(t, 4, 2, 2, 0)
	_, n := newNet(t, tp, "mprdma")
	defer func() {
		if recover() == nil {
			t.Fatal("self-send did not panic")
		}
	}()
	n.Send(2, 2, 100, nil)
}

func TestTinyAndOddSizes(t *testing.T) {
	tp := testTopo(t, 4, 2, 2, 0)
	eng, n := newNet(t, tp, "mprdma")
	delivered := 0
	sizes := []int64{1, 63, 4096, 4097, 12289, 0 /* clamps to 1 */}
	for _, sz := range sizes {
		n.Send(0, 1, sz, func(simtime.Time) { delivered++ })
	}
	eng.Run()
	if delivered != len(sizes) {
		t.Fatalf("delivered %d/%d odd-size messages", delivered, len(sizes))
	}
}

// Property: random message patterns always fully deliver on every CC, and
// completion time is never below the physics bound.
func TestDeliveryProperty(t *testing.T) {
	algs := []string{"mprdma", "ndp"}
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		for _, alg := range algs {
			tp := testTopo(t, 8, 4, 2, 64*1024)
			eng := engine.New()
			n, err := New(eng, Config{Topo: tp, CC: alg, Seed: seed})
			if err != nil {
				return false
			}
			want := rng.Intn(10) + 1
			got := 0
			minSer := simtime.Duration(1 << 62)
			for i := 0; i < want; i++ {
				src := rng.Intn(8)
				dst := rng.Intn(7)
				if dst >= src {
					dst++
				}
				size := rng.Int63n(64*1024) + 1
				ser := simtime.Duration(size) * 40
				if ser < minSer {
					minSer = ser
				}
				n.Send(src, dst, size, func(simtime.Time) { got++ })
			}
			end := eng.Run()
			if got != want {
				return false
			}
			if simtime.Duration(end) < minSer {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestOversubscriptionHurtsCrossTorTraffic(t *testing.T) {
	// permutation traffic crossing ToRs: 8:1 oversubscribed core must be
	// slower than fully provisioned.
	run := func(cores int) simtime.Time {
		tp := testTopo(t, 16, 8, cores, 0)
		eng, n := newNet(t, tp, "mprdma")
		var last simtime.Time
		for src := 0; src < 8; src++ {
			n.Send(src, 8+src, 512*1024, func(at simtime.Time) {
				if at > last {
					last = at
				}
			})
		}
		eng.Run()
		return last
	}
	full := run(8)
	over := run(1)
	if float64(over) < 1.5*float64(full) {
		t.Fatalf("8:1 oversubscription (%v) not clearly slower than 1:1 (%v)", over, full)
	}
}

// BenchmarkPacketForwarding measures the per-packet host cost of the packet
// path on a warmed Network, a fixed batch per iteration so that a
// -benchtime 3x CI run means something: "elephant" is one 1 MiB message
// across the core (256 data packets + 256 ACKs over 4 hops each way);
// "small-flows" is shaped like the storage traffic — 2048 messages of
// about 870 B between 16 hosts, one packet each, where per-message state
// dominates.
func BenchmarkPacketForwarding(b *testing.B) {
	cases := []struct {
		name  string
		batch func(n *Network)
	}{
		{"elephant", func(n *Network) { n.Send(0, 15, 1<<20, nil) }},
		{"small-flows", func(n *Network) {
			for i := 0; i < 2048; i++ {
				src := i % 16
				n.Send(src, (src+1+i/16%15)%16, 870+int64(i%64), nil)
			}
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			eng := engine.New()
			n, err := New(eng, Config{Topo: testTopo(b, 16, 4, 4, 0), CC: "mprdma", Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			c.batch(n)
			eng.Run()
			warm := n.Stats.PktsSent
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.batch(n)
				eng.Run()
			}
			b.ReportMetric(float64(n.Stats.PktsSent-warm)/float64(b.N), "pkts/op")
		})
	}
}

package fluid

import (
	"math"
	"testing"
	"testing/quick"

	"atlahs/internal/engine"
	"atlahs/internal/simtime"
	"atlahs/internal/topo"
	"atlahs/internal/xrand"
)

func testTopo(t testing.TB, hosts, perTor, cores int) *topo.Topology {
	t.Helper()
	tp, err := topo.NewFatTree(topo.FatTreeConfig{
		Hosts: hosts, HostsPerToR: perTor, Cores: cores,
		Link: topo.DefaultLinkSpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestNilTopo(t *testing.T) {
	if _, err := New(engine.New(), Config{}); err == nil {
		t.Fatal("nil topology accepted")
	}
}

func TestSingleFlowExactTime(t *testing.T) {
	tp := testTopo(t, 4, 2, 2)
	eng := engine.New()
	n, err := New(eng, Config{Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	var done simtime.Time
	n.Send(0, 3, size, func(at simtime.Time) { done = at })
	eng.Run()
	// With an idle network the flow gets the full 25 GB/s: transfer takes
	// size*40 ps plus 4-hop propagation (4 x 500 ns).
	want := simtime.Time(size*40) + simtime.Time(4*500*simtime.Nanosecond)
	if done < want || done > want+simtime.Time(10*simtime.Nanosecond) {
		t.Fatalf("delivered at %v, want ~%v", done, want)
	}
}

func TestFairSharing(t *testing.T) {
	// two equal flows into the same destination share its access link;
	// each should take ~2x the solo time.
	tp := testTopo(t, 4, 2, 2)
	eng := engine.New()
	n, _ := New(eng, Config{Topo: tp})
	const size = 1 << 20
	var t1, t2 simtime.Time
	n.Send(1, 0, size, func(at simtime.Time) { t1 = at })
	n.Send(2, 0, size, func(at simtime.Time) { t2 = at })
	eng.Run()
	solo := float64(size * 40)
	if math.Abs(float64(t1)-2*solo) > 0.1*solo || math.Abs(float64(t2)-2*solo) > 0.1*solo {
		t.Fatalf("shared flows finished at %v and %v, want ~%v", t1, t2, simtime.Time(2*solo))
	}
}

func TestUnequalFlowsMaxMin(t *testing.T) {
	// A short and a long flow share a link: after the short one finishes,
	// the long one speeds up — total time < sequential but > ideal.
	tp := testTopo(t, 4, 2, 2)
	eng := engine.New()
	n, _ := New(eng, Config{Topo: tp})
	var shortT, longT simtime.Time
	n.Send(1, 0, 1<<18, func(at simtime.Time) { shortT = at })
	n.Send(2, 0, 1<<20, func(at simtime.Time) { longT = at })
	eng.Run()
	if shortT >= longT {
		t.Fatalf("short flow (%v) not before long flow (%v)", shortT, longT)
	}
	// long flow: shares for 2*2^18*40 ps, then full rate for the rest
	ideal := float64((1<<20)*40 + 2000*1000)
	if float64(longT) < ideal {
		t.Fatalf("long flow %v faster than ideal %v", longT, simtime.Time(ideal))
	}
	sequential := float64(((1 << 20) + (1 << 18)) * 40 * 2)
	if float64(longT) > sequential {
		t.Fatalf("long flow %v slower than sequential bound", longT)
	}
}

func TestManyFlowsAllComplete(t *testing.T) {
	tp := testTopo(t, 16, 4, 4)
	eng := engine.New()
	n, _ := New(eng, Config{Topo: tp})
	rng := xrand.New(3)
	want, got := 200, 0
	for i := 0; i < want; i++ {
		src := rng.Intn(16)
		dst := rng.Intn(15)
		if dst >= src {
			dst++
		}
		n.Send(src, dst, rng.Int63n(1<<20)+1, func(simtime.Time) { got++ })
	}
	eng.Run()
	if got != want {
		t.Fatalf("completed %d/%d", got, want)
	}
	if n.MsgsCompleted != uint64(want) {
		t.Fatalf("MsgsCompleted=%d", n.MsgsCompleted)
	}
}

func TestOverheadAndJitter(t *testing.T) {
	tp := testTopo(t, 4, 2, 2)
	eng := engine.New()
	n, _ := New(eng, Config{Topo: tp, Overhead: 10 * simtime.Microsecond})
	var done simtime.Time
	n.Send(0, 1, 4096, func(at simtime.Time) { done = at })
	eng.Run()
	if simtime.Duration(done) < 10*simtime.Microsecond {
		t.Fatalf("overhead not applied: %v", done)
	}

	// jitter must be deterministic for a fixed seed
	run := func() simtime.Time {
		eng := engine.New()
		n, _ := New(eng, Config{Topo: testTopo(t, 4, 2, 2), JitterFrac: 0.1, Seed: 42})
		var at simtime.Time
		n.Send(0, 3, 1<<20, func(a simtime.Time) { at = a })
		eng.Run()
		return at
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("jitter non-deterministic: %v vs %v", a, b)
	}
	// and larger than the no-jitter time
	engJ := engine.New()
	nj, _ := New(engJ, Config{Topo: testTopo(t, 4, 2, 2), Seed: 42})
	var noJitter simtime.Time
	nj.Send(0, 3, 1<<20, func(at simtime.Time) { noJitter = at })
	engJ.Run()
	if a < noJitter {
		t.Fatalf("jittered %v < unjittered %v", a, noJitter)
	}
}

func TestSelfSendPanics(t *testing.T) {
	tp := testTopo(t, 4, 2, 2)
	n, _ := New(engine.New(), Config{Topo: tp})
	defer func() {
		if recover() == nil {
			t.Fatal("self-send did not panic")
		}
	}()
	n.Send(1, 1, 10, nil)
}

// Property: conservation — every message completes, and no message
// completes faster than its physics bound (serialisation at the slowest
// link plus propagation).
func TestConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		tp := testTopo(t, 8, 4, 2)
		eng := engine.New()
		n, _ := New(eng, Config{Topo: tp})
		type msg struct {
			size int64
			at   simtime.Time
		}
		k := rng.Intn(20) + 1
		msgs := make([]*msg, k)
		for i := 0; i < k; i++ {
			m := &msg{size: rng.Int63n(1<<19) + 1}
			msgs[i] = m
			src := rng.Intn(8)
			dst := rng.Intn(7)
			if dst >= src {
				dst++
			}
			n.Send(src, dst, m.size, func(at simtime.Time) { m.at = at })
		}
		eng.Run()
		for _, m := range msgs {
			if m.at == 0 {
				return false
			}
			if m.at < simtime.Time(m.size*40) {
				return false // faster than line rate
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOversubscribedCoreContention(t *testing.T) {
	// 8 hosts per ToR, 1 core: cross-ToR aggregate is 1 link. 8 cross-ToR
	// flows should take ~8x a solo cross-ToR flow.
	mk := func() (*engine.Engine, *Network) {
		tp := testTopo(t, 16, 8, 1)
		eng := engine.New()
		n, _ := New(eng, Config{Topo: tp})
		return eng, n
	}
	eng1, n1 := mk()
	var solo simtime.Time
	n1.Send(0, 8, 1<<20, func(at simtime.Time) { solo = at })
	eng1.Run()

	eng2, n2 := mk()
	var last simtime.Time
	for i := 0; i < 8; i++ {
		n2.Send(i, 8+i, 1<<20, func(at simtime.Time) {
			if at > last {
				last = at
			}
		})
	}
	eng2.Run()
	ratio := float64(last) / float64(solo)
	if ratio < 6 || ratio > 10 {
		t.Fatalf("8 flows over 1 uplink: ratio %.2f, want ~8", ratio)
	}
}

func BenchmarkFluidRecompute(b *testing.B) {
	tp := testTopo(b, 64, 8, 8)
	eng := engine.New()
	n, _ := New(eng, Config{Topo: tp})
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := rng.Intn(64)
		dst := rng.Intn(63)
		if dst >= src {
			dst++
		}
		n.Send(src, dst, 1<<16, nil)
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}

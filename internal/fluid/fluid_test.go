package fluid

import (
	"math"
	"strings"
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

// referenceFill is the progressive filling this package ran before the
// per-link member lists (commit 636aba8): every round walks every link,
// then every unfrozen flow's whole path. It returns the rate it gives each
// flow of active, in order, and leaves the flows alone.
func referenceFill(active []*flow, links []topo.Link) []float64 {
	nl := len(links)
	avail := make([]float64, nl)
	cnt := make([]int, nl)
	for i := range avail {
		avail[i] = 1 / float64(links[i].PsPerByte)
	}
	rate := make([]float64, len(active))
	for _, f := range active {
		for _, lid := range f.links {
			cnt[lid]++
		}
	}
	frozen := make([]bool, len(active))
	unfrozen := len(active)
	for unfrozen > 0 {
		share := math.Inf(1)
		for l := 0; l < nl; l++ {
			if cnt[l] > 0 {
				if s := avail[l] / float64(cnt[l]); s < share {
					share = s
				}
			}
		}
		if math.IsInf(share, 1) || share < 1e-15 {
			share = 0
		}
		for l := 0; l < nl; l++ {
			if cnt[l] > 0 {
				avail[l] -= share * float64(cnt[l])
			}
		}
		// freeze flows crossing any saturated link
		for i, f := range active {
			if frozen[i] {
				continue
			}
			rate[i] += share
			saturated := share == 0
			for _, lid := range f.links {
				if avail[lid] <= 1e-12 {
					saturated = true
					break
				}
			}
			if saturated {
				frozen[i] = true
				unfrozen--
				for _, lid := range f.links {
					cnt[lid]--
				}
			}
		}
	}
	return rate
}

// referenceWake is when the reference wakes after filling at now: at the
// earliest completion at the rates it gave.
func referenceWake(now simtime.Time, active []*flow, rate []float64) simtime.Time {
	soonest := math.Inf(1)
	for i, f := range active {
		if rate[i] > 0 {
			if t := f.remaining / rate[i]; t < soonest {
				soonest = t
			}
		}
	}
	return now.Add(simtime.Duration(math.Ceil(soonest)))
}

// FuzzFillingMatchesReference drives random traffic over random fat trees,
// oversubscribed ones included, and holds every recompute to the reference
// filling on the same active flows: every rate equal to the bit, and the
// same wake-up. Messages start in bursts at shared instants and in
// between, from 1 B to 1 MiB; afterwards every message was delivered once
// and the network is drained.
func FuzzFillingMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(4), uint8(4), uint8(64), false)
	f.Add(uint64(2), uint8(2), uint8(8), uint8(1), uint8(120), true)
	f.Add(uint64(3), uint8(4), uint8(16), uint8(1), uint8(200), false)
	f.Add(uint64(4), uint8(4), uint8(16), uint8(16), uint8(255), true)
	f.Add(uint64(5), uint8(1), uint8(3), uint8(2), uint8(12), false)
	f.Fuzz(func(t *testing.T, seed uint64, tors, perTor, cores, msgs uint8, noisy bool) {
		nTors, nPer, nCores := 1+int(tors)%4, 1+int(perTor)%16, 1+int(cores)%16
		hosts := nTors * nPer
		if hosts < 2 {
			t.Skip("one host sends to no one")
		}
		tp := testTopo(t, hosts, nPer, nCores)
		cfg := Config{Topo: tp, Seed: seed}
		if noisy {
			cfg.Overhead, cfg.JitterFrac = 500*simtime.Nanosecond, 0.03
		}
		eng := engine.New()
		n, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fills := 0
		n.filled = func(wake simtime.Time) {
			fills++
			want := referenceFill(n.active, tp.Links)
			for i, fl := range n.active {
				if math.Float64bits(fl.rate) != math.Float64bits(want[i]) {
					t.Fatalf("fill %d at %v: flow %d of %d: rate %v, reference %v", fills, eng.Now(), i, len(n.active), fl.rate, want[i])
				}
			}
			if w := referenceWake(eng.Now(), n.active, want); w != wake {
				t.Fatalf("fill %d at %v: wake at %v, reference %v", fills, eng.Now(), wake, w)
			}
		}
		rng := xrand.New(seed)
		k := 1 + int(msgs)
		delivered := make([]int, k)
		for i := 0; i < k; i++ {
			src := rng.Intn(hosts)
			dst := rng.Intn(hosts - 1)
			if dst >= src {
				dst++
			}
			var size int64
			switch rng.Intn(4) {
			case 0:
				size = 1
			case 1:
				size = 1 << 20
			default:
				size = 1 + rng.Int63n(1<<20)
			}
			at := simtime.Time(rng.Intn(8)) * simtime.Time(25*simtime.Microsecond)
			if rng.Intn(2) == 0 {
				at += simtime.Time(rng.Int63n(int64(25 * simtime.Microsecond)))
			}
			eng.Schedule(at, func() {
				n.Send(src, dst, size, func(simtime.Time) { delivered[i]++ })
			})
		}
		eng.Run()
		for i, d := range delivered {
			if d != 1 {
				t.Fatalf("message %d delivered %d times", i, d)
			}
		}
		if fills < k {
			t.Fatalf("%d fills for %d messages", fills, k)
		}
		if err := n.Drained(); err != nil {
			t.Fatal(err)
		}
	})
}

// Drained finds what a run left behind: a flow still listed on a link, a
// flow still active, a message sent and never completed.
func TestDrainedReportsLeftovers(t *testing.T) {
	run := func() *Network {
		eng := engine.New()
		n, _ := New(eng, Config{Topo: testTopo(t, 8, 4, 2)})
		for src := 1; src < 8; src++ {
			n.Send(src, 0, 1<<16, nil)
		}
		eng.Run()
		if err := n.Drained(); err != nil {
			t.Fatalf("a finished run: %v", err)
		}
		return n
	}
	for leftover, seed := range map[string]func(n *Network){
		"link 3 still lists 1 flows": func(n *Network) {
			n.members[3] = append(n.members[3], &flow{links: []int{3}, slot: []int{0}})
		},
		"1 flows still active": func(n *Network) {
			n.active = append(n.active, &flow{})
		},
		"8 messages sent, 7 completed": func(n *Network) {
			n.nextID++
		},
	} {
		n := run()
		seed(n)
		if err := n.Drained(); err == nil || !strings.Contains(err.Error(), leftover) {
			t.Errorf("seeded %q: Drained said %v", leftover, err)
		}
	}
}

// BenchmarkFluidRecompute holds about 500 flows in flight on the
// benchmark's HPC accuracy fabric (64 hosts, 16 per ToR, 16 cores: 256
// links), as the fluid run of that fixture does. Each operation starts one
// message and runs until one completes, so it times about two recomputes
// at that population.
func BenchmarkFluidRecompute(b *testing.B) {
	const inFlight = 500
	tp := testTopo(b, 64, 16, 16)
	eng := engine.New()
	n, _ := New(eng, Config{Topo: tp})
	rng := xrand.New(1)
	stop := func(simtime.Time) { eng.Stop() }
	send := func() {
		src := rng.Intn(64)
		dst := rng.Intn(63)
		if dst >= src {
			dst++
		}
		n.Send(src, dst, 64<<10+rng.Int63n(1<<20), stop)
	}
	for i := 0; i < inFlight; i++ {
		send()
	}
	for b.Loop() {
		send()
		eng.Run()
	}
	b.ReportMetric(float64(len(n.active)), "flows")
}

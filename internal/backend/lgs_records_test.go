package backend

import (
	"testing"

	"atlahs/internal/core"
	"atlahs/internal/engine"
	"atlahs/internal/simtime"
)

// checkLGSDrained verifies the ownership rules after a run that completed:
// every message record ever made is on exactly one free list and marked
// free, no stream or NIC still has a completion pending, and the matcher
// holds neither a message nor a receive.
func checkLGSDrained(t testing.TB, b *LGS) {
	t.Helper()
	made := 0
	seen := map[*lgsMsg]bool{}
	for i := range b.ranks {
		r := &b.ranks[i]
		made += r.made
		for _, m := range r.free {
			if seen[m] {
				t.Fatalf("rank %d: message record on a free list twice", i)
			}
			seen[m] = true
			if m.step != msgFree {
				t.Errorf("rank %d: record on the free list at step %d", i, m.step)
			}
		}
		if n := r.cpus.Pending() + r.nic.Pending(); n != 0 {
			t.Errorf("rank %d: %d completions still pending on its streams and NIC", i, n)
		}
	}
	if len(seen) != made {
		t.Errorf("%d of %d message records on the free lists", len(seen), made)
	}
	if a, p := b.match.Pending(); a != 0 || p != 0 {
		t.Errorf("matcher still holds %d messages and %d receives", a, p)
	}
}

// A stale holder must fail loudly: a record released twice panics, and so
// does an event that fires on a record after it was recycled.
func TestLGSStaleRecordUsePanics(t *testing.T) {
	b := NewLGS(HPCParams())
	eng := engine.New()
	if err := b.Setup(2, eng, func(core.Handle, simtime.Time) {}); err != nil {
		t.Fatal(err)
	}
	b.Send(core.SendEvent{Handle: core.MakeHandle(0, 0), Src: 0, Dst: 1, Size: 64})
	b.Recv(core.RecvEvent{Handle: core.MakeHandle(1, 0), Src: 0, Dst: 1, Size: 64})
	eng.Run()
	checkLGSDrained(t, b)
	if len(b.ranks[1].free) != 1 || b.ranks[0].made != 1 {
		t.Fatalf("the message's record was not recycled on the receiver's lane: %d free there, %d made", len(b.ranks[1].free), b.ranks[0].made)
	}
	m := b.ranks[1].free[0]
	for name, stale := range map[string]func(){
		"second release":             m.release,
		"event on a recycled record": m.fire,
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

// TestLGSSteadyStateAllocs is the allocation gate for LGS: once warm, an
// eager message, a rendezvous message and a calc — issued, carried through
// every hop, matched and completed — cost at most 2 heap objects
// (amortised growth of the matcher's queues; streams, NICs and message
// records allocate nothing), on the serial engine and on the lane engine.
func TestLGSSteadyStateAllocs(t *testing.T) {
	p := HPCParams()
	for name, eng := range map[string]engine.Sim{
		"serial": engine.New(),
		// One worker: the lanes, their clocks and the cross-lane hand-over
		// of records are those of any worker count, without a worker pool
		// whose start-up allocations vary from Run to Run.
		"lanes": engine.NewParallel(8, 1, p.L),
	} {
		b := NewLGS(p)
		completed := 0
		if err := b.Setup(8, eng, func(core.Handle, simtime.Time) { completed++ }); err != nil {
			t.Fatal(err)
		}
		// Both directions between ranks 1 and 6, so that each lane's free
		// list gets back what it hands out.
		round := func() {
			for _, pair := range [][2]int{{1, 6}, {6, 1}} {
				src, dst := pair[0], pair[1]
				b.Send(core.SendEvent{Handle: core.MakeHandle(src, 0), Src: src, Dst: dst, Size: 870, Tag: 5})
				b.Send(core.SendEvent{Handle: core.MakeHandle(src, 1), Src: src, Dst: dst, Size: p.S, Tag: 6, CPU: 1})
				b.Recv(core.RecvEvent{Handle: core.MakeHandle(dst, 2), Src: src, Dst: dst, Size: p.S, Tag: 6})
				b.Recv(core.RecvEvent{Handle: core.MakeHandle(dst, 3), Src: src, Dst: dst, Size: 870, Tag: 5, CPU: 1})
				b.Calc(core.CalcEvent{Handle: core.MakeHandle(dst, 4), Rank: dst, Duration: simtime.Microsecond})
			}
			eng.Run()
		}
		for i := 0; i < 8; i++ {
			round()
		}
		// ParEngine.Run allocates its window scratch however little it
		// runs: measured idle and taken off.
		idle := testing.AllocsPerRun(50, func() { eng.Run() })
		got := testing.AllocsPerRun(50, round) - idle
		t.Logf("%s: %v allocations per round of four messages and two calcs (an idle Run: %v)", name, got, idle)
		if got > 2 {
			t.Errorf("%s: %v allocations per round in steady state, want <= 2", name, got)
		}
		if want := 10 * (8 + 51); completed != want {
			t.Fatalf("%s: %d completions, want %d", name, completed, want)
		}
		checkLGSDrained(t, b)
	}
}

// The FIFO order of a stream's completions rests on every cost being
// non-negative; parameters arrive in user specs, so a negative one is an
// error from Setup, not a panic mid-run.
func TestLGSRejectsNegativeParams(t *testing.T) {
	p := AIParams()
	p.G = -5 * simtime.Nanosecond
	if err := NewLGS(p).Setup(2, engine.New(), func(core.Handle, simtime.Time) {}); err == nil {
		t.Fatal("negative g accepted")
	}
}

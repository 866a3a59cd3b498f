package backend

import (
	"fmt"
	"strings"
	"testing"

	"atlahs/internal/core"
	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/sched"
	"atlahs/internal/simtime"
	"atlahs/internal/workload/micro"
)

// checkLGSDrained verifies the ownership rules after a run that completed:
// Drained, and every record on the free lists once and marked free.
func checkLGSDrained(t testing.TB, b *LGS) {
	t.Helper()
	if err := b.Drained(); err != nil {
		t.Fatal(err)
	}
	seen := map[*lgsMsg]bool{}
	lanes := b.ranks[:cap(b.ranks)]
	for i := range lanes {
		for _, m := range lanes[i].free {
			if seen[m] {
				t.Fatalf("rank %d: message record on a free list twice", i)
			}
			seen[m] = true
			if m.step != msgFree {
				t.Errorf("rank %d: record on the free list at step %d", i, m.step)
			}
		}
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

// An adopted state, unbound from the run before as sim.Run leaves it,
// serves the next run as a fresh one would — the same outcome on either
// engine — and a run that needs no more message records
// than the last makes none. A state a deadlock left behind is not drained.
func TestLGSAdoptedStateRunsAsFresh(t *testing.T) {
	p := HPCParams()
	s := micro.UniformRandom(16, 300, rendezvousBytes, 4)
	want := outcomeOf(runLGS(t, s, p))
	prev := NewLGS(p)
	if _, err := sched.Run(engine.New(), s, prev, sched.Options{}); err != nil {
		t.Fatal(err)
	}
	made := func(b *LGS) (n int) {
		for _, r := range b.ranks[:cap(b.ranks)] {
			n += r.made
		}
		return n
	}
	for i, eng := range []engine.Sim{engine.New(), engine.NewParallel(16, 2, p.L), engine.New()} {
		records := made(prev)
		b := NewLGS(p)
		b.Adopt(prev)
		res, err := sched.Run(eng, s, b, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := outcomeOf(res); got != want {
			t.Fatalf("run %d on an adopted state: %+v, fresh %+v", i, got, want)
		}
		checkLGSDrained(t, b)
		b.Unbind()
		if prev.ranks != nil || prev.match != nil {
			t.Fatalf("run %d: the adopted backend kept its state", i)
		}
		// The lane engine hands records between lanes at window edges and
		// may hold a few more at once; a serial run holds what one did.
		if _, serial := eng.(*engine.Engine); serial && made(b) != records {
			t.Fatalf("run %d: %d records made, %d before it", i, made(b), records)
		}
		prev = b
	}

	stuck := goal.NewBuilder(2)
	stuck.Rank(0).Send(64, 1, 1)
	stuck.Rank(1).Recv(64, 0, 2)
	b := NewLGS(p)
	b.Adopt(prev)
	if _, err := sched.Run(engine.New(), stuck.MustBuild(), b, sched.Options{}); err == nil {
		t.Fatal("unmatched send and receive completed")
	}
	held := fmt.Sprintf("%d of %d message records", made(b)-1, made(b)) // the send the matcher holds
	if err := b.Drained(); err == nil || !strings.Contains(err.Error(), held) {
		t.Fatalf("Drained after a deadlock: %v", err)
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

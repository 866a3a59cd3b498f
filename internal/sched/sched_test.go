package sched

import (
	"strings"
	"testing"

	"atlahs/internal/core"
	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/simtime"
)

// stubBackend is a minimal deterministic core.Backend: every operation
// takes a fixed latency and completes in issue order, and the backend logs
// each issue as "<kind> r<rank>.<op>" so tests can assert dispatch order.
// Sends and recvs complete unconditionally (no matching), which keeps the
// stub focused on the scheduler's dependency bookkeeping.
type stubBackend struct {
	lat    simtime.Duration
	eng    engine.Sim
	over   core.CompletionFunc
	issued []string
}

func newStub(lat simtime.Duration) *stubBackend { return &stubBackend{lat: lat} }

func (b *stubBackend) Name() string { return "stub" }

func (b *stubBackend) Setup(nranks int, eng engine.Sim, over core.CompletionFunc) error {
	b.eng = eng
	b.over = over
	return nil
}

func (b *stubBackend) complete(kind string, h core.Handle, d simtime.Duration) {
	b.issued = append(b.issued, kind)
	ln := b.eng.Lane(h.Rank())
	end := ln.Now().Add(d)
	ln.Schedule(end, func() { b.over(h, end) })
}

func (b *stubBackend) Send(ev core.SendEvent) {
	b.complete(opName("send", ev.Handle), ev.Handle, b.lat)
}
func (b *stubBackend) Recv(ev core.RecvEvent) {
	b.complete(opName("recv", ev.Handle), ev.Handle, b.lat)
}
func (b *stubBackend) Calc(ev core.CalcEvent) {
	b.complete(opName("calc", ev.Handle), ev.Handle, ev.Duration)
}

func opName(kind string, h core.Handle) string {
	return kind + " r" + string(rune('0'+h.Rank())) + "." + string(rune('0'+h.Op()))
}

// TestRunDependencyOrder: a diamond DAG on one rank must dispatch in
// topological order, with the join op issued only after both branches
// complete.
func TestRunDependencyOrder(t *testing.T) {
	b := goal.NewBuilder(1)
	r := b.Rank(0)
	root := r.Calc(100) // op 0
	left := r.Calc(10)  // op 1
	right := r.Calc(20) // op 2
	join := r.Calc(5)   // op 3
	r.Requires(left, root)
	r.Requires(right, root)
	r.Requires(join, left, right)
	s := b.MustBuild()

	be := newStub(0)
	res, err := Run(engine.New(), s, be, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"calc r0.0", "calc r0.1", "calc r0.2", "calc r0.3"}
	if got := strings.Join(be.issued, ", "); got != strings.Join(want, ", ") {
		t.Fatalf("dispatch order %q, want %q", got, strings.Join(want, ", "))
	}
	if res.Ops != 4 {
		t.Fatalf("Ops = %d, want 4", res.Ops)
	}
	// root 100ns, branches overlap (stub has no streams) ending at 120ns,
	// join 5ns after the slower branch.
	if want := simtime.Duration(125 * simtime.Nanosecond); res.Runtime != want {
		t.Fatalf("Runtime = %v, want %v", res.Runtime, want)
	}
}

// TestRunIRequiresIssuesOnStart: an irequires dependency unblocks when the
// dependency is issued, not when it completes.
func TestRunIRequiresIssuesOnStart(t *testing.T) {
	b := goal.NewBuilder(1)
	r := b.Rank(0)
	slow := r.Calc(1000)  // op 0
	chained := r.Calc(10) // op 1: would wait 1000ns under requires
	r.IRequires(chained, slow)
	s := b.MustBuild()

	be := newStub(0)
	res, err := Run(engine.New(), s, be, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Both issue at time zero; runtime is the slow op, not the sum.
	if want := simtime.Duration(1000 * simtime.Nanosecond); res.Runtime != want {
		t.Fatalf("Runtime = %v, want %v", res.Runtime, want)
	}
	// The irequires successor cascades inside issue(), so it reaches the
	// backend before the dependency's own dispatch call.
	if got := strings.Join(be.issued, ", "); got != "calc r0.1, calc r0.0" {
		t.Fatalf("dispatch order %q", got)
	}
}

// TestRunCompletionCallback: completion times reported by the backend land
// in RankEnd per rank, and CalcScale stretches calc durations.
func TestRunCompletionCallback(t *testing.T) {
	b := goal.NewBuilder(2)
	b.Rank(0).Calc(100)
	b.Rank(1).Calc(300)
	s := b.MustBuild()

	res, err := Run(engine.New(), s, newStub(0), Options{CalcScale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := simtime.Time(200 * simtime.Nanosecond); res.RankEnd[0] != want {
		t.Fatalf("RankEnd[0] = %v, want %v", res.RankEnd[0], want)
	}
	if want := simtime.Time(600 * simtime.Nanosecond); res.RankEnd[1] != want {
		t.Fatalf("RankEnd[1] = %v, want %v", res.RankEnd[1], want)
	}
	if res.Events == 0 {
		t.Fatal("Events not counted")
	}
}

// deadlockBackend completes calcs but swallows sends/recvs, so any
// schedule with communication deadlocks.
type deadlockBackend struct{ stubBackend }

func (b *deadlockBackend) Send(ev core.SendEvent) {}
func (b *deadlockBackend) Recv(ev core.RecvEvent) {}

// TestRunDeadlockReported: draining the event queue with ops still pending
// must produce the diagnostic error, not a silent short result.
func TestRunDeadlockReported(t *testing.T) {
	b := goal.NewBuilder(2)
	r0 := b.Rank(0)
	sendOp := r0.Send(8, 1, 0)
	after := r0.Calc(10)
	r0.Requires(after, sendOp)
	b.Rank(1).Recv(8, 0, 0)
	s := b.MustBuild()

	_, err := Run(engine.New(), s, &deadlockBackend{}, Options{})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("error %q does not mention deadlock", err)
	}
}

// TestRunRejectsUndersizedParEngine: handing sched a parallel engine with
// fewer lanes than ranks is a caller bug surfaced as an error.
func TestRunRejectsUndersizedParEngine(t *testing.T) {
	b := goal.NewBuilder(4)
	for r := 0; r < 4; r++ {
		b.Rank(r).Calc(10)
	}
	s := b.MustBuild()
	eng := engine.NewParallel(2, 2, simtime.Microsecond)
	if _, err := Run(eng, s, newStub(0), Options{}); err == nil {
		t.Fatal("expected lane-count error")
	}
}

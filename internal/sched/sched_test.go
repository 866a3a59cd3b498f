package sched

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"atlahs/internal/backend"
	"atlahs/internal/core"
	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/simtime"
	"atlahs/internal/workload/micro"
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

// TestRunMixedDependenciesOneCounter: an op with both kinds of dependency
// is issued exactly when the last of them resolves — its `requires`
// completing after its `irequires` started, or the other way round. One
// counter per op holds both kinds.
func TestRunMixedDependenciesOneCounter(t *testing.T) {
	for _, c := range []struct {
		name          string
		first, second int64 // the required op's and the irequired op's predecessor's durations
	}{
		// op 3 requires op 0 (done at `first`) and irequires op 2, which
		// starts when op 1 is done (at `second`) and runs 1 ns; op 3 runs
		// 5 ns from the later of the two and is the last thing to finish.
		{"requires resolves last", 100, 10},
		{"irequires resolves last", 10, 100},
	} {
		b := goal.NewBuilder(1)
		r := b.Rank(0)
		required := r.Calc(c.first) // op 0
		gate := r.Calc(c.second)    // op 1
		started := r.Calc(1)        // op 2: starts after gate
		both := r.Calc(5)           // op 3
		r.Requires(started, gate)
		r.Requires(both, required)
		r.IRequires(both, started)
		be := newStub(0)
		res, err := Run(engine.New(), b.MustBuild(), be, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := 105 * simtime.Nanosecond; res.Ops != 4 || res.Runtime != want {
			t.Fatalf("%s: %d ops, runtime %v, want 4 ops and %v (dispatch order %v)", c.name, res.Ops, res.Runtime, want, be.issued)
		}
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

// TestRunTalliesByKind: the per-kind completion counts equal the
// schedule's op mix for every micro pattern, on the serial engine and on
// the lane engine at 2 and 4 workers, where the counters are written from
// concurrent worker lanes (CI runs it under -race).
func TestRunTalliesByKind(t *testing.T) {
	for _, c := range []struct {
		name string
		s    *goal.Schedule
	}{
		{"incast", micro.Incast(8, 7, 4096)},
		{"permutation", micro.Permutation(8, 4096, 3)},
		{"ring", micro.Ring(8, 4096)},
		{"alltoall", micro.AllToAll(8, 4096)},
		{"uniform", micro.UniformRandom(8, 50, 4096, 5)},
		{"bsp", micro.BulkSynchronous(8, 3, 4096, 1500)},
	} {
		st := c.s.ComputeStats()
		for _, workers := range []int{1, 2, 4} {
			be := backend.NewLGS(backend.AIParams())
			var eng engine.Sim = engine.New()
			if workers > 1 {
				eng = engine.NewParallel(c.s.NumRanks(), workers, be.Lookahead())
			}
			res, err := Run(eng, c.s, be, Options{})
			if err != nil {
				t.Fatalf("%s, %d workers: %v", c.name, workers, err)
			}
			if res.Calcs != st.Calcs || res.Sends != st.Sends || res.Recvs != st.Recvs || res.Ops != st.Ops {
				t.Errorf("%s, %d workers: completed %d calcs, %d sends, %d recvs (%d ops), schedule has %d, %d, %d (%d)",
					c.name, workers, res.Calcs, res.Sends, res.Recvs, res.Ops, st.Calcs, st.Sends, st.Recvs, st.Ops)
			}
		}
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

// TestRunRejectsInvalidSchedules: Run inverts the dependency tables, which
// indexes by edge value, so it must not trust its caller to have validated:
// each class of invalid schedule comes back as Run's own error, before the
// backend is even set up.
func TestRunRejectsInvalidSchedules(t *testing.T) {
	build := func(edit func(r0 *goal.RankBuilder)) *goal.Schedule {
		b := goal.NewBuilder(2)
		r0 := b.Rank(0)
		first := r0.Calc(1)
		r0.Requires(r0.Calc(2), first) // op 1 requires op 0
		b.Rank(1).Calc(1)
		edit(r0)
		return b.Build()
	}
	truncated := build(func(*goal.RankBuilder) {})
	truncated.Ranks[0].IRequires = goal.Deps{}
	for _, tc := range []struct {
		name, want string
		s          *goal.Schedule
	}{
		{"cycle", "dependency cycle", build(func(r0 *goal.RankBuilder) { r0.IRequires(0, 1) })},
		{"self edge", "dependency cycle", build(func(r0 *goal.RankBuilder) { r0.Requires(1, 1) })},
		{"requires out of range", "requires index 7 out of range", build(func(r0 *goal.RankBuilder) { r0.Requires(1, 7) })},
		{"irequires negative", "irequires index -1 out of range", build(func(r0 *goal.RankBuilder) { r0.IRequires(1, -1) })},
		{"bad peer", "peer 2 out of range", build(func(r0 *goal.RankBuilder) { r0.Send(8, 2, 0) })},
		{"self send", "self-send", build(func(r0 *goal.RankBuilder) { r0.Send(8, 0, 0) })},
		{"negative size", "negative size", build(func(r0 *goal.RankBuilder) { r0.Calc(-5) })},
		{"table length", "dependency table length mismatch", truncated},
	} {
		be := newStub(0)
		_, err := Run(engine.New(), tc.s, be, Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
		if verr := tc.s.Validate(); verr == nil || err == nil || verr.Error() != err.Error() {
			t.Errorf("%s: Run said %v, Validate said %v", tc.name, err, verr)
		}
		if be.eng != nil {
			t.Errorf("%s: backend was set up for an invalid schedule", tc.name)
		}
	}
	// A forward edge alone is legal: op 0 waits for op 1.
	forward := goal.NewBuilder(1)
	f0 := forward.Rank(0)
	f0.Requires(f0.Calc(1), 1)
	f0.Calc(2)
	be := newStub(0)
	if _, err := Run(engine.New(), forward.Build(), be, Options{}); err != nil {
		t.Fatalf("forward dependency rejected: %v", err)
	}
	if got := strings.Join(be.issued, ", "); got != "calc r0.1, calc r0.0" {
		t.Fatalf("dispatch order %q", got)
	}
}

// chains builds nranks independent chains of nops calcs each: every op
// but the first has one dependency, like trace-converted GOAL.
func chains(nranks, nops int) *goal.Schedule {
	b := goal.NewBuilder(nranks)
	for r := 0; r < nranks; r++ {
		rb := b.Rank(r)
		prev := rb.Calc(1)
		for i := 1; i < nops; i++ {
			cur := rb.Calc(1)
			rb.Requires(cur, prev)
			prev = cur
		}
	}
	return b.MustBuild()
}

// TestSchedSetupAllocsPerRank: what a first run allocates before its first
// event is a constant number of objects per rank — a successor table of two
// arrays for each kind of edge the rank has (none for a table without
// edges), one counter array, one flag array — whatever the op count, and a
// State that has served the schedule allocates none of them again.
// quietBackend never completes an op, so the run ends in the deadlock
// report straight after set-up and seeding. Growing the ranks tenfold in
// ops must add nothing. Each count is the least of several rounds
// (leastAllocs), since under -race the report's fmt call allocates a
// printer and its buffer again whenever its sync.Pool drops them, which
// it does at random; the slack of four is for the same printer.
func TestSchedSetupAllocsPerRank(t *testing.T) {
	const nranks = 8
	setup := func(nops int) (first, warm float64) {
		s := chains(nranks, nops)
		first = leastAllocs(func() { quietRun(t, new(State), s) })
		st := new(State)
		warm = leastAllocs(func() { quietRun(t, st, s) })
		return first, warm
	}
	small, smallWarm := setup(100)
	large, largeWarm := setup(1000)
	if large > small+4 {
		t.Fatalf("set-up allocations grew with op count: %.0f for 100 ops/rank, %.0f for 1000", small, large)
	}
	if perRank := small / nranks; perRank > 8 {
		t.Fatalf("set-up allocated %.1f times per rank, want at most 8", perRank)
	}
	if smallWarm > 12 || largeWarm > 12 {
		t.Fatalf("set-up on a warm State allocated %.0f (100 ops/rank) and %.0f (1000) times, want at most 12", smallWarm, largeWarm)
	}
}

// TestWarmRunValidatesInKeptScratch: goal keeps Validate's cycle-check
// arrays between calls, so a warm run of a schedule whose dependencies
// point forward, which Validate must check for cycles, allocates no more
// than a warm run of the same chains pointing backward does, which it need
// not: less, by far, than the check's two int32 arrays per op. Bytes are
// compared, not counts, so that the deadlock report's printer, which
// -race's sync.Pool drops at random, cannot hide or fake the arrays.
func TestWarmRunValidatesInKeptScratch(t *testing.T) {
	const nranks, nops = 8, 1000
	b := goal.NewBuilder(nranks)
	for r := 0; r < nranks; r++ {
		rb := b.Rank(r)
		next := rb.Calc(1)
		for i := 1; i < nops; i++ {
			cur := rb.Calc(1)
			rb.Requires(next, cur) // each op waits for the one after it
			next = cur
		}
	}
	forward := b.MustBuild()
	warm := func(s *goal.Schedule) uint64 {
		st := new(State)
		quietRun(t, st, s)
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			quietRun(t, st, s)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	got, want := warm(forward), warm(chains(nranks, nops))
	if arrays := uint64(2 * nops * 4); got >= want+arrays/2 {
		t.Fatalf("a warm run of forward chains allocated %d B, of backward chains %d B: the cycle check's %d B arrays were not kept", got, want, arrays)
	}
}

// quietRun runs s on st with quietBackend, which ends every run in the
// deadlock report.
func quietRun(t *testing.T, st *State, s *goal.Schedule) {
	t.Helper()
	if _, err := st.Run(engine.New(), s, quietBackend{}, Options{}); err == nil {
		t.Fatal("quietBackend completed a run")
	}
}

// leastAllocs is the least of five testing.AllocsPerRun rounds of f. A
// sync.Pool under -race drops what it is given at random, and each drop
// costs the next Get an allocation that f does not otherwise make.
func leastAllocs(f func()) float64 {
	least := testing.AllocsPerRun(5, f)
	for range 4 {
		least = min(least, testing.AllocsPerRun(5, f))
	}
	return least
}

// quietBackend accepts every op and completes none.
type quietBackend struct{}

func (quietBackend) Name() string                                     { return "quiet" }
func (quietBackend) Setup(int, engine.Sim, core.CompletionFunc) error { return nil }
func (quietBackend) Send(core.SendEvent)                              {}
func (quietBackend) Recv(core.RecvEvent)                              {}
func (quietBackend) Calc(core.CalcEvent)                              {}

// TestDecodeAndRunBytesPerOp is the tier-1 guard on the flat dependency
// layout: the bytes allocated to decode a binary schedule and run it, per
// GOAL op, on a fixed 64-rank chain-heavy schedule, in a first run (a warm
// process reuses everything but the decode: sim.TestWarmRunAllocs). The count is exact
// for a given toolchain (one goroutine); the ceiling sits about 3% above
// it: 79.1 B/op measured with each op stored as its 4-byte short word and,
// for the two thirds that are messages, an 8-byte side word (a third of
// the ops are calcs, which have none) and 0.375 B of index, all in one
// array per rank, and the dependency tables held as the binary encoding's
// bytes (a byte per op and per edge, copied out of the file); 83.5 with
// an 8-byte first word per op and the second words in an array of their
// own, 85.9 with a 16-byte op stored per op, and 91.3 with that
// and the tables in CSR form (4 B per op and per edge); all with the
// engine's event slab
// grown to the pending peak (181 slots), LGS's completions on stream
// rings, one recycled record per message, one dependency counter per op
// and neither an offset array nor a successor table for the schedule's
// empty `irequires` side, against 99.7 with 24-byte ops, 104.1 with that
// offset array, 111.8 with the event heap reserved for the seeding burst
// (this schedule pre-posts its 20 000 receives: 20 064 slots), 169.9 with
// a closure per LGS event and two counters per op, 185.8 with one heap
// slot reserved per op on top of that, and 319.5 with [][]int32 tables and
// a second inversion inside Validate.
func TestDecodeAndRunBytesPerOp(t *testing.T) {
	s := micro.UniformRandom(64, 20_000, 4096, 7)
	var bin bytes.Buffer
	if err := goal.WriteBinary(&bin, s); err != nil {
		t.Fatal(err)
	}
	ops := s.ComputeStats().Ops
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	parsed, err := goal.ParseBinary(bin.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(engine.New(), parsed, backend.NewLGS(backend.AIParams()), Options{})
	runtime.ReadMemStats(&after)
	if err != nil || res.Ops != ops {
		t.Fatalf("run failed: %v", err)
	}
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
	t.Logf("%.1f B/op over %d ops", perOp, ops)
	if perOp > 81.5 {
		t.Fatalf("decode + run allocated %.1f B per op, ceiling 81.5", perOp)
	}
}

// TestDecodeBytesPerCalcOp gates what decoding a calc-heavy binary schedule
// allocates per GOAL op: 64 ranks of 2 000 chained calcs, the shape of a
// converted training trace, whose ops are almost all calcs. A calc under
// 2^27 ns on cpu 0 to 14 is one 4-byte short word, and its rank has no
// side words and no index at all, so a decoded op costs its short word
// plus its dependency list's two bytes: 6.19 B/op measured, against a
// ceiling of 6.4; 10.29 with an 8-byte first word per op, and 18.49 with
// a 16-byte op stored per op.
func TestDecodeBytesPerCalcOp(t *testing.T) {
	s := chains(64, 2_000)
	var bin bytes.Buffer
	if err := goal.WriteBinary(&bin, s); err != nil {
		t.Fatal(err)
	}
	ops := s.ComputeStats().Ops
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := goal.ParseBinary(bin.Bytes())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
	t.Logf("%.2f B/op over %d ops", perOp, ops)
	if perOp > 6.4 {
		t.Fatalf("decoding allocated %.2f B per op, ceiling 6.4", perOp)
	}
}

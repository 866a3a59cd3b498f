package sim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atlahs/internal/backend"
	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/registry"
	"atlahs/internal/sched"
	"atlahs/internal/workload/micro"
)

// runOutcome is what a run lets a caller observe of the simulation itself.
type runOutcome struct {
	Runtime Duration
	Events  uint64
	RankEnd []Time
}

// freshOutcome runs spec's schedule through sched.Run on an engine, a
// backend and a scheduler state made for this run alone: what a process
// that has run nothing before computes for it.
func freshOutcome(t testing.TB, spec Spec) runOutcome {
	t.Helper()
	sch, _, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	def, _ := Lookup(spec.BackendName())
	be, err := def.New(spec.Config, Env{Ranks: sch.NumRanks(), Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(engine.New(), sch, be, sched.Options{CalcScale: spec.CalcScale})
	if err != nil {
		t.Fatal(err)
	}
	return runOutcome{res.Runtime, res.Events, res.RankEnd}
}

// checkRun runs spec through Run and holds its outcome to want.
func checkRun(t testing.TB, label string, spec Spec, want runOutcome) {
	t.Helper()
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got := (runOutcome{res.Runtime, res.Events, res.RankEnd}); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: outcome differs from a fresh process's: runtime %v events %d, want %v %d (rank ends equal: %v)",
			label, got.Runtime, got.Events, want.Runtime, want.Events, reflect.DeepEqual(got.RankEnd, want.RankEnd))
	}
}

// lgsPinnedCases are backend.TestLGSOutcomesPinned's schedules and
// parameters: between them they pass through every event LGS schedules.
func lgsPinnedCases() []Spec {
	pair := func(fill func(src, dst *goal.RankBuilder)) *goal.Schedule {
		b := goal.NewBuilder(2)
		fill(b.Rank(0), b.Rank(1))
		return b.MustBuild()
	}
	const rdv = 256000 // HPCParams' rendezvous threshold
	ping := func(size int64) *goal.Schedule {
		return pair(func(src, dst *goal.RankBuilder) { src.Send(size, 1, 0); dst.Recv(size, 0, 0) })
	}
	shapes := map[string]*goal.Schedule{
		"eager-ping":      ping(8),
		"rendezvous-ping": ping(rdv),
		"eager-then-rendezvous": pair(func(src, dst *goal.RankBuilder) {
			src.Chain(src.Send(1000, 1, 0), src.Send(rdv, 1, 0))
			dst.Chain(dst.Recv(1000, 0, 0), dst.Recv(rdv, 0, 0))
		}),
		"rendezvous-then-eager": pair(func(src, dst *goal.RankBuilder) {
			src.Chain(src.Send(rdv, 1, 0), src.Send(1000, 1, 0))
			dst.Chain(dst.Recv(rdv, 0, 0), dst.Recv(1000, 0, 0))
		}),
		"wildcard-recv": pair(func(src, dst *goal.RankBuilder) {
			src.Send(64, 1, 41)
			src.Send(rdv, 1, 42)
			src.Send(64, 1, 43)
			dst.Recv(64, 0, 43)
			dst.Recv(rdv, 0, goal.AnyTag)
			dst.Recv(64, 0, 42)
		}),
		"two-streams": pair(func(src, dst *goal.RankBuilder) {
			src.SendOn(100000, 1, 0, 0)
			src.SendOn(rdv, 1, 1, 1)
			src.CalcOn(20000, 1)
			src.SendOn(300, 1, 2, 0)
			src.RecvOn(5000, 1, 9, 1)
			dst.RecvOn(100000, 0, 0, 1)
			dst.CalcOn(50000, 0)
			dst.RecvOn(rdv, 0, 1, 0)
			dst.RecvOn(300, 0, 2, 1)
			dst.SendOn(5000, 0, 9, 0)
		}),
		"recv-after-message": pair(func(src, dst *goal.RankBuilder) {
			src.Send(512, 1, 0)
			src.Send(rdv, 1, 1)
			late := dst.Calc(200000)
			dst.Requires(dst.Recv(512, 0, 0), late)
			dst.Requires(dst.Recv(rdv, 0, 1), late)
		}),
		"recv-before-message": pair(func(src, dst *goal.RankBuilder) {
			late := src.Calc(200000)
			src.Requires(src.Send(512, 1, 0), late)
			src.Requires(src.Send(rdv, 1, 1), late)
			dst.Recv(512, 0, 0)
			dst.Recv(rdv, 0, 1)
		}),
		"uniform-random-64":            micro.UniformRandom(64, 2000, 8192, 11),
		"uniform-random-64-rendezvous": micro.UniformRandom(64, 1000, 300_000, 12),
	}
	zeroL := HPCParams()
	zeroL.L = 0
	var specs []Spec
	for _, c := range []struct {
		shape  string
		params LogGOPS
	}{
		{"eager-ping", AIParams()}, {"eager-ping", HPCParams()}, {"rendezvous-ping", HPCParams()},
		{"eager-then-rendezvous", HPCParams()}, {"rendezvous-then-eager", HPCParams()},
		{"wildcard-recv", HPCParams()}, {"two-streams", AIParams()}, {"two-streams", HPCParams()},
		{"recv-after-message", HPCParams()}, {"recv-before-message", HPCParams()},
		{"two-streams", zeroL}, {"wildcard-recv", zeroL},
		{"uniform-random-64", AIParams()}, {"uniform-random-64-rendezvous", HPCParams()},
	} {
		specs = append(specs, Spec{Workload: Workload{Schedule: shapes[c.shape]}, Config: LGSConfig{Params: c.params}})
	}
	return specs
}

// recycleSizedSpecs are TestRecycledRunsMatchFresh's other specs: a big
// run and a small one that follow each other, and a clean run that follows
// each kind of failed run.
func recycleSizedSpecs() (big, small, clean Spec) {
	big = Spec{Workload: Workload{Schedule: micro.UniformRandom(96, 3000, 300_000, 5)}, Config: LGSConfig{Params: HPCParams()}}
	small = Spec{Workload: Workload{Schedule: micro.Ring(6, 4096)}}
	clean = Spec{Workload: Workload{Schedule: micro.BulkSynchronous(16, 3, 300_000, 2000)}, Config: LGSConfig{Params: HPCParams()}}
	return big, small, clean
}

// recyclePanic is LGS until its run's fourth calc, which panics: after
// seeding, on the lane engine, from a worker goroutine.
type recyclePanic struct {
	*backend.LGS
	calcs atomic.Int64
}

func (b *recyclePanic) Calc(ev CalcEvent) {
	if b.calcs.Add(1) > 3 {
		panic(fmt.Sprintf("recycle-panic: rank %d calc", ev.Rank))
	}
	b.LGS.Calc(ev)
}

// TestRecycledRunsMatchFresh: whatever a process has run before — the same
// spec, a larger or smaller one, on the serial or the lane engine, or a run
// that deadlocked, was cancelled or panicked half-way — a run's Runtime,
// Events and RankEnd are those a fresh process computes.
func TestRecycledRunsMatchFresh(t *testing.T) {
	if _, ok := Lookup("recycle-panic"); !ok {
		Register(Definition{Name: "recycle-panic", Parallel: true, New: func(any, Env) (Backend, error) {
			return &recyclePanic{LGS: backend.NewLGS(HPCParams())}, nil
		}})
	}
	for i, spec := range lgsPinnedCases() {
		want := freshOutcome(t, spec)
		for _, workers := range []int{0, 2} {
			spec.Workers = workers
			for rep := 0; rep < 2; rep++ {
				checkRun(t, fmt.Sprintf("pinned case %d, workers %d, run %d", i, workers, rep), spec, want)
			}
		}
	}

	big, small, clean := recycleSizedSpecs()
	wantBig, wantSmall := freshOutcome(t, big), freshOutcome(t, small)
	for _, workers := range []int{0, 2} {
		big.Workers, small.Workers = workers, workers
		checkRun(t, fmt.Sprintf("big, workers %d", workers), big, wantBig)
		checkRun(t, fmt.Sprintf("small after big, workers %d", workers), small, wantSmall)
		checkRun(t, fmt.Sprintf("big after small, workers %d", workers), big, wantBig)
	}

	// Each failure leaves state half-used — messages unmatched, receives
	// posted, events queued, completions pending — and the clean run after
	// it must not see any of it.
	deadlock := goal.NewBuilder(4)
	deadlock.Rank(0).Send(4096, 1, 1)
	deadlock.Rank(1).Recv(4096, 0, 2)
	deadlock.Rank(2).Send(300_000, 3, 0)
	deadlock.Rank(3).Calc(100)
	stuck := deadlock.MustBuild()
	wantClean := freshOutcome(t, clean)
	for _, workers := range []int{0, 2} {
		clean.Workers = workers
		if _, err := Run(context.Background(), Spec{Workload: Workload{Schedule: stuck}, Workers: workers,
			Config: LGSConfig{Params: HPCParams()}}); err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("workers %d: deadlocking schedule: %v", workers, err)
		}
		checkRun(t, fmt.Sprintf("after a deadlock, workers %d", workers), clean, wantClean)

		ctx, cancel := context.WithCancel(context.Background())
		_, err := Run(ctx, Spec{Workload: Workload{Schedule: micro.AllToAll(64, 1024)}, Workers: workers,
			Observer: &cancelAfter{n: 100, cancel: cancel}})
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers %d: mid-run cancel: %v", workers, err)
		}
		checkRun(t, fmt.Sprintf("after a cancelled run, workers %d", workers), clean, wantClean)

		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "recycle-panic") {
					t.Fatalf("workers %d: panicking backend: recovered %v", workers, r)
				}
			}()
			Run(context.Background(), Spec{Workload: Workload{Schedule: micro.BulkSynchronous(8, 2, 1024, 500)},
				Backend: "recycle-panic", Workers: workers})
		}()
		checkRun(t, fmt.Sprintf("after a panicking backend, workers %d", workers), clean, wantClean)
	}
}

// TestRecycledRunsMatchFreshConcurrently: runs of different specs on
// concurrent goroutines, each repeated, serial and on the lane engine, all
// match a fresh process. CI runs it under -race.
func TestRecycledRunsMatchFreshConcurrently(t *testing.T) {
	specs := []Spec{
		{Workload: Workload{Schedule: micro.UniformRandom(32, 600, 300_000, 2)}, Config: LGSConfig{Params: HPCParams()}},
		{Workload: Workload{Schedule: micro.Ring(12, 8192)}, Workers: 2},
		{Workload: Workload{Schedule: micro.AllToAll(16, 2048)}},
		{Workload: Workload{Schedule: micro.BulkSynchronous(24, 3, 65536, 1000)}, Workers: 2, CalcScale: 1.5},
	}
	want := make([]runOutcome, len(specs))
	for i, spec := range specs {
		want[i] = freshOutcome(t, spec)
	}
	var wg sync.WaitGroup
	for g := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 6; rep++ {
				// Rotate so that every goroutine runs every spec.
				i := (g + rep) % len(specs)
				res, err := Run(context.Background(), specs[i])
				if err != nil {
					t.Errorf("goroutine %d spec %d: %v", g, i, err)
					return
				}
				if got := (runOutcome{res.Runtime, res.Events, res.RankEnd}); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d spec %d run %d: runtime %v events %d, fresh %v %d", g, i, rep, got.Runtime, got.Events, want[i].Runtime, want[i].Events)
				}
			}
		}()
	}
	wg.Wait()
}

// TestWarmRunAllocs is the allocation gate for a warm process: a second
// identical LGS run allocates the same number of objects whatever its op
// count, because the scheduler's arrays, the engine's event slab and LGS's
// streams, records and matcher queues are the first run's. What is left is
// the run's own: its Result and RankEnd, the backend object the registry
// builds, and the metrics snapshot, 8 in all.
func TestWarmRunAllocs(t *testing.T) {
	const nranks = 8
	for _, c := range []struct {
		name   string
		bytes  int64
		params LogGOPS
	}{{"eager", 4096, AIParams()}, {"rendezvous", 300_000, HPCParams()}} {
		allocs := func(opsPerRank int) float64 {
			// A message is three ops: the sender's think time and send, the
			// receiver's receive.
			spec := Spec{Workload: Workload{Schedule: micro.UniformRandom(nranks, nranks*opsPerRank/3, c.bytes, 1)},
				Config: LGSConfig{Params: c.params}}
			run := func() {
				if _, err := Run(context.Background(), spec); err != nil {
					t.Fatal(err)
				}
			}
			run()
			return testing.AllocsPerRun(10, run)
		}
		small, large := allocs(100), allocs(1000)
		t.Logf("%s: %.1f allocations per warm run at 100 ops a rank, %.1f at 1000", c.name, small, large)
		// The slack of two is for sync.Pool, which drops its items at
		// random under -race.
		if large > small+2 {
			t.Errorf("%s: a warm run allocated %.1f objects at 1000 ops a rank, %.1f at 100", c.name, large, small)
		}
		if small > 10 {
			t.Errorf("%s: a warm run allocated %.1f objects, want at most 10", c.name, small)
		}
	}
}

// keptObserver is an Observer with a body of its own, so that the collector
// can tell when it is gone. The padding takes it past 16 bytes: a smaller
// pointer-free object goes to the tiny allocator, which packs several into
// one block that is freed only with all of them, so its cleanup would wait
// on whatever happened to be allocated next to it.
type keptObserver struct {
	NopObserver
	ops atomic.Int64
	_   [16]byte
}

func (o *keptObserver) OpCompleted(OpEvent) { o.ops.Add(1) }

// TestKeptStateHoldsNoRun: the state a successful LGS run leaves for the
// next one reaches neither the run's schedule nor its Observer, on the
// serial engine or the lane engine, so both are collectable once Run has
// returned.
func TestKeptStateHoldsNoRun(t *testing.T) {
	for _, workers := range []int{0, 2} {
		var gone atomic.Int32
		func() {
			sch := micro.UniformRandom(16, 300, 300_000, 3)
			obs := new(keptObserver)
			runtime.AddCleanup(sch, func(int) { gone.Add(1) }, 0)
			runtime.AddCleanup(obs, func(int) { gone.Add(1) }, 0)
			spec := Spec{Workload: Workload{Schedule: sch}, Observer: obs, Workers: workers,
				Config: LGSConfig{Params: HPCParams()}}
			if _, err := Run(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
		}()
		held := stocked(&runStates)
		kept := len(held) > 0 && held[len(held)-1].lgs != nil
		if !kept {
			t.Fatalf("workers %d: the run kept no LGS state", workers)
		}
		// Cleanups run on a goroutine of their own after the cycle that
		// frees their object.
		for i := 0; i < 50 && gone.Load() < 2; i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if n := gone.Load(); n != 2 {
			t.Fatalf("workers %d: %d of the schedule and the Observer collected after Run returned", workers, n)
		}
	}
}

// barrierObserver holds every run it watches at RunStarted until n runs
// have started, so that n runs are in flight at once.
type barrierObserver struct {
	NopObserver
	started *sync.WaitGroup
}

func (o barrierObserver) RunStarted(RunInfo) {
	o.started.Done()
	o.started.Wait()
}

// TestRunStateStock holds the retention rule: a sequence of runs shares
// one kept state, whatever their sizes, so a small run takes the state a
// large one left; the stock grows only to as many states as there were
// runs in flight at once, and stays there.
func TestRunStateStock(t *testing.T) {
	for runStates.Len() > 0 {
		runStates.Take()
	}
	stock := func() []*runState { return stocked(&runStates) }
	run := func(spec Spec) {
		t.Helper()
		if _, err := Run(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	big := Spec{Workload: Workload{Schedule: micro.UniformRandom(96, 3000, 300_000, 5)}, Config: LGSConfig{Params: HPCParams()}}
	small := Spec{Workload: Workload{Schedule: micro.Ring(6, 4096)}}
	run(big)
	first := stock()
	if len(first) != 1 || first[0].lgs == nil || first[0].eng == nil {
		t.Fatalf("after one run the stock is %d states", len(first))
	}
	for i, spec := range []Spec{small, big, small} {
		run(spec)
		if got := stock(); len(got) != 1 || got[0] != first[0] {
			t.Fatalf("run %d of a sequence: the stock is %d states, the first one kept: %v", i, len(got), len(got) > 0 && got[0] == first[0])
		}
	}

	const inFlight = 3
	var started, done sync.WaitGroup
	started.Add(inFlight)
	for g := 0; g < inFlight; g++ {
		done.Add(1)
		go func() {
			defer done.Done()
			spec := small
			spec.Observer = barrierObserver{started: &started}
			if _, err := Run(context.Background(), spec); err != nil {
				t.Error(err)
			}
		}()
	}
	done.Wait()
	if got := len(stock()); got != inFlight {
		t.Fatalf("after %d runs in flight at once the stock is %d states", inFlight, got)
	}
	run(big)
	run(small)
	if got := len(stock()); got != inFlight {
		t.Fatalf("a sequence after %d runs in flight left %d states", inFlight, got)
	}
}

// stocked drains s and puts back what it held, in the same order: it
// returns the values from the one put back first to the one Take would
// return next.
func stocked[T any](s *registry.Stock[T]) []*T {
	held := make([]*T, s.Len())
	for i := len(held) - 1; i >= 0; i-- {
		held[i] = s.Take()
	}
	for _, v := range held {
		s.Put(v)
	}
	return held
}

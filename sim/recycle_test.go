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

// runOutcome is what a run lets a caller observe of the simulation itself:
// on pkt, also the fabric counters and every message's completion time.
type runOutcome struct {
	Runtime Duration
	Events  uint64
	RankEnd []Time
	Net     *NetStats
	MCT     *Sample
}

// sampled returns spec with a PktConfig.MCT sample of its own, so that
// every run of a pkt spec records its message completion times apart.
func sampled(spec Spec) Spec {
	if c, ok := spec.Config.(PktConfig); ok {
		c.MCT = new(Sample)
		spec.Config = c
	}
	return spec
}

// outcomeOf is what res and the MCT sample of spec, a spec from sampled,
// show of a run.
func outcomeOf(res *Result, spec Spec) runOutcome {
	out := runOutcome{Runtime: res.Runtime, Events: res.Events, RankEnd: res.RankEnd, Net: res.Net}
	if c, ok := spec.Config.(PktConfig); ok {
		out.MCT = c.MCT
	}
	return out
}

// freshOutcome runs spec's schedule through sched.Run on an engine, a
// backend and a scheduler state made for this run alone: what a process
// that has run nothing before computes for it.
func freshOutcome(t testing.TB, spec Spec) runOutcome {
	t.Helper()
	spec = sampled(spec)
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
	out := &Result{Runtime: res.Runtime, Events: res.Events, RankEnd: res.RankEnd}
	if nb, ok := be.(*backend.NetBackend); ok {
		out.Net = nb.NetStats()
	}
	return outcomeOf(out, spec)
}

// checkRun runs spec through Run and holds its outcome to want.
func checkRun(t testing.TB, label string, spec Spec, want runOutcome) {
	t.Helper()
	spec = sampled(spec)
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if msg := outcomeDiff(outcomeOf(res, spec), want); msg != "" {
		t.Fatalf("%s: outcome differs from a fresh process's: %s", label, msg)
	}
}

// outcomeDiff says how got differs from want, or returns "".
func outcomeDiff(got, want runOutcome) string {
	if reflect.DeepEqual(got, want) {
		return ""
	}
	return fmt.Sprintf("runtime %v events %d net %+v, want %v %d %+v (rank ends equal: %v, MCT samples equal: %v)",
		got.Runtime, got.Events, got.Net, want.Runtime, want.Events, want.Net,
		reflect.DeepEqual(got.RankEnd, want.RankEnd), reflect.DeepEqual(got.MCT, want.MCT))
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

// lossyIncast is an oversubscribed fabric (one core switch for eight hosts
// per ToR) with 16 KiB port buffers, and fifteen 64-packet messages into
// one host: MPRDMA drops on it and NDP trims.
func lossyIncast(cc string) Spec {
	link := DefaultLinkSpec()
	link.BufBytes = 16 * 1024
	return Spec{Workload: Workload{Schedule: micro.Incast(16, 15, 64*4096)}, Backend: "pkt", Seed: 7,
		Config: PktConfig{HostsPerToR: 8, Oversub: 8, Link: link, CC: cc}}
}

// pktRecycleSpecs are TestRecycledRunsMatchFresh's pkt specs: every
// congestion control on one fabric, oversubscribed so that each gives the
// run an outcome of its own (the first four), the lossy incast under MPRDMA
// and NDP, and a run on an explicit fabric; then a big run, a small one and
// the big one again, each on another fabric and seed; and a clean run that
// follows each kind of failed run.
func pktRecycleSpecs(t testing.TB) (cases []Spec, big, small, clean Spec) {
	for _, cc := range []string{"mprdma", "swift", "dctcp", "ndp"} {
		cases = append(cases, Spec{Workload: Workload{Schedule: micro.Permutation(16, 256<<10, 3)},
			Backend: "pkt", Seed: 3, Config: PktConfig{Oversub: 4, CC: cc}})
	}
	cases = append(cases, lossyIncast("mprdma"), lossyIncast("ndp"))
	tp, err := FatTree(16, 4, 2, 0, LinkSpec{})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, Spec{Workload: Workload{Schedule: micro.AllToAll(16, 9000)}, Backend: "pkt", Seed: 4,
		Config: PktConfig{Topo: tp, CC: "dctcp"}})
	big = Spec{Workload: Workload{Schedule: micro.UniformRandom(40, 300, 20_000, 5)}, Backend: "pkt", Seed: 5,
		Config: PktConfig{HostsPerToR: 8, Oversub: 2}}
	small = Spec{Workload: Workload{Schedule: micro.Ring(6, 4096)}, Backend: "pkt", Seed: 9, Config: PktConfig{CC: "ndp"}}
	clean = Spec{Workload: Workload{Schedule: micro.BulkSynchronous(16, 3, 50_000, 2000)}, Backend: "pkt", Seed: 2,
		Config: PktConfig{CC: "swift"}}
	return cases, big, small, clean
}

// panicAfter panics at its n-th op completion: a run that stops half-way,
// from inside the backend's delivery callback.
type panicAfter struct {
	NopObserver
	n, seen int
}

func (o *panicAfter) OpCompleted(OpEvent) {
	if o.seen++; o.seen == o.n {
		panic("recycle-panic: observer")
	}
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

	// The packet backend keeps its network for a run on the same fabric,
	// and the rest of its state for any pkt run.
	cases, pbig, psmall, pclean := pktRecycleSpecs(t)
	seen := map[Duration]bool{}
	for i, spec := range cases {
		want := freshOutcome(t, spec)
		if seen[want.Runtime] && i < 4 {
			// A network kept from a run under another congestion control
			// must drop its flows' controllers; only distinct outcomes
			// show whether it did.
			t.Fatalf("pkt case %d: congestion control %s gives the runtime of another", i, spec.Config.(PktConfig).CC)
		}
		seen[want.Runtime] = true
		if c := spec.Config.(PktConfig); c.Link.BufBytes != 0 && (want.Net.Drops+want.Net.Trims == 0) {
			t.Fatalf("pkt case %d (%s): the lossy incast neither drops nor trims: %+v", i, c.CC, *want.Net)
		}
		for rep := 0; rep < 2; rep++ {
			checkRun(t, fmt.Sprintf("pkt case %d, run %d", i, rep), spec, want)
		}
	}
	wantBig, wantSmall = freshOutcome(t, pbig), freshOutcome(t, psmall)
	checkRun(t, "pkt big", pbig, wantBig)
	checkRun(t, "pkt small after big", psmall, wantSmall)
	checkRun(t, "pkt big after small", pbig, wantBig)

	wantClean = freshOutcome(t, pclean)
	if _, err := Run(context.Background(), Spec{Workload: Workload{Schedule: stuck}, Backend: "pkt"}); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("pkt deadlocking schedule: %v", err)
	}
	checkRun(t, "pkt after a deadlock", pclean, wantClean)
	ctx, cancel := context.WithCancel(context.Background())
	_, err := Run(ctx, sampled(Spec{Workload: Workload{Schedule: micro.AllToAll(48, 4096)}, Backend: "pkt",
		Observer: &cancelAfter{n: 100, cancel: cancel}, Config: PktConfig{CC: "swift"}}))
	cancel()
	if err != context.Canceled {
		t.Fatalf("pkt mid-run cancel: %v", err)
	}
	checkRun(t, "pkt after a cancelled run", pclean, wantClean)
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "recycle-panic") {
				t.Fatalf("pkt run with a panicking observer: recovered %v", r)
			}
		}()
		Run(context.Background(), sampled(Spec{Workload: Workload{Schedule: micro.AllToAll(48, 4096)}, Backend: "pkt",
			Observer: &panicAfter{n: 100}, Config: PktConfig{CC: "swift"}}))
	}()
	checkRun(t, "pkt after a panicking run", pclean, wantClean)
}

// TestRecycledRunsMatchFreshConcurrently: runs of different specs on
// concurrent goroutines, each repeated — LGS serial and on the lane engine,
// pkt on three fabrics and congestion controls — all match a fresh
// process. CI runs it under -race.
func TestRecycledRunsMatchFreshConcurrently(t *testing.T) {
	specs := []Spec{
		{Workload: Workload{Schedule: micro.UniformRandom(32, 600, 300_000, 2)}, Config: LGSConfig{Params: HPCParams()}},
		{Workload: Workload{Schedule: micro.Ring(12, 8192)}, Workers: 2},
		{Workload: Workload{Schedule: micro.AllToAll(16, 2048)}},
		{Workload: Workload{Schedule: micro.BulkSynchronous(24, 3, 65536, 1000)}, Workers: 2, CalcScale: 1.5},
		{Workload: Workload{Schedule: micro.UniformRandom(16, 200, 20_000, 6)}, Backend: "pkt", Seed: 1},
		lossyIncast("ndp"),
		{Workload: Workload{Schedule: micro.Ring(12, 30_000)}, Backend: "pkt", Seed: 8, Config: PktConfig{HostsPerToR: 8, CC: "dctcp"}},
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
			for rep := 0; rep < 2*len(specs)-2; rep++ {
				// Rotate so that every goroutine runs every spec.
				i := (g + rep) % len(specs)
				spec := sampled(specs[i])
				res, err := Run(context.Background(), spec)
				if err != nil {
					t.Errorf("goroutine %d spec %d: %v", g, i, err)
					return
				}
				if msg := outcomeDiff(outcomeOf(res, spec), want[i]); msg != "" {
					t.Errorf("goroutine %d spec %d run %d: %s", g, i, rep, msg)
				}
			}
		}()
	}
	wg.Wait()
}

// TestWarmRunAllocs is the allocation gate for a warm process: a second
// identical run allocates the same number of objects whatever its op
// count, because the scheduler's arrays, the engine's event slab and the
// backend's state are the first run's — LGS's streams, records and
// matcher queues, or the packet backend's streams, send records, matcher
// queues and network, with its fabric, paths, port queues and packet and
// flow records. What is left is the run's own: its Result and RankEnd, the
// backend object the registry builds, and the metrics snapshot, 8 in all
// on LGS; on pkt also the closure that binds the network and the
// counters' copy in Result.Net, 10. Kept state lives in a registry.Stock,
// which never drops what it holds, so the larger run may not allocate a
// single object more.
func TestWarmRunAllocs(t *testing.T) {
	const nranks = 8
	for _, c := range []struct {
		name, backend string
		bytes         int64
		cfg           any
	}{
		{"lgs/eager", "lgs", 4096, LGSConfig{Params: AIParams()}},
		{"lgs/rendezvous", "lgs", 300_000, LGSConfig{Params: HPCParams()}},
		{"pkt/mprdma", "pkt", 4096, PktConfig{CC: "mprdma"}},
		{"pkt/ndp", "pkt", 4096, PktConfig{CC: "ndp"}},
	} {
		allocs := func(opsPerRank int) float64 {
			// A message is three ops: the sender's think time and send, the
			// receiver's receive.
			spec := Spec{Workload: Workload{Schedule: micro.UniformRandom(nranks, nranks*opsPerRank/3, c.bytes, 1)},
				Backend: c.backend, Config: c.cfg}
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
		if large > small {
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

// TestKeptStateHoldsNoRun: the state a successful run leaves for the next
// one reaches neither the run's schedule nor its Observer — on LGS on the
// serial engine or the lane engine, or on pkt, where the run's
// PktConfig.MCT sample must not be reachable from the kept network either —
// so all of them are collectable once Run has returned.
func TestKeptStateHoldsNoRun(t *testing.T) {
	for _, c := range []struct {
		name    string
		backend string
		workers int
	}{{"lgs", "lgs", 0}, {"lgs on the lane engine", "lgs", 2}, {"pkt", "pkt", 0}} {
		var gone atomic.Int32
		want := int32(2)
		func() {
			bytes := int64(300_000)
			if c.backend == "pkt" {
				bytes = 20_000
			}
			sch := micro.UniformRandom(16, 300, bytes, 3)
			obs := new(keptObserver)
			runtime.AddCleanup(sch, func(int) { gone.Add(1) }, 0)
			runtime.AddCleanup(obs, func(int) { gone.Add(1) }, 0)
			spec := Spec{Workload: Workload{Schedule: sch}, Observer: obs, Workers: c.workers, Backend: c.backend,
				Config: LGSConfig{Params: HPCParams()}}
			if c.backend == "pkt" {
				mct := new(Sample)
				runtime.AddCleanup(mct, func(int) { gone.Add(1) }, 0)
				want++
				spec.Config = PktConfig{MCT: mct}
			}
			if _, err := Run(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
		}()
		held := stocked(&runStates)
		kept := len(held) > 0 && held[len(held)-1].lgs != nil
		if c.backend == "pkt" {
			kept = len(held) > 0 && held[len(held)-1].pkt != nil
		}
		if !kept {
			t.Fatalf("%s: the run kept no backend state", c.name)
		}
		// Cleanups run on a goroutine of their own after the cycle that
		// frees their object.
		for i := 0; i < 50 && gone.Load() < want; i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if n := gone.Load(); n != want {
			t.Fatalf("%s: %d of the schedule, the Observer and the MCT sample (%d in all) collected after Run returned", c.name, n, want)
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
	pktBig := Spec{Workload: Workload{Schedule: micro.UniformRandom(40, 300, 20_000, 5)}, Backend: "pkt", Config: PktConfig{HostsPerToR: 8}}
	pktSmall := Spec{Workload: Workload{Schedule: micro.Ring(6, 4096)}, Backend: "pkt", Config: PktConfig{CC: "ndp"}}
	for i, spec := range []Spec{small, big, small, pktBig, pktSmall, pktBig, small} {
		run(spec)
		if got := stock(); len(got) != 1 || got[0] != first[0] {
			t.Fatalf("run %d of a sequence: the stock is %d states, the first one kept: %v", i, len(got), len(got) > 0 && got[0] == first[0])
		}
	}
	if first[0].pkt == nil {
		t.Fatal("a pkt sequence kept no packet backend")
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

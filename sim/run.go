package sim

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"atlahs/internal/core"
	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/pktnet"
	"atlahs/internal/sched"
	"atlahs/internal/simtime"
	"atlahs/internal/telemetry"
	"atlahs/results"
)

// Result summarises a completed run: the simulated outcome (makespan,
// per-rank completion), the run's resolved metadata (backend, engine,
// workload accounting) and the executed-op tallies observed through the
// completion stream. Every field is deterministic except Wall.
type Result struct {
	// Runtime is the simulated completion time of the last op (the
	// makespan).
	Runtime Duration
	// RankEnd is each rank's last-op completion time.
	RankEnd []Time
	// Ops is the number of executed GOAL ops.
	Ops int64
	// Events is the number of engine events processed.
	Events uint64
	// Backend is the resolved backend name.
	Backend string
	// Ranks is the schedule's rank count (= simulated endpoints).
	Ranks int
	// Sched is the resolved workload's size accounting (ops, bytes on the
	// wire, dependency edges, ...).
	Sched ScheduleStats
	// Done tallies executed ops by kind, counted at completion time as the
	// Observer sees them. A successful run completes every scheduled op
	// (the scheduler errors on deadlock instead of returning partial
	// results), so Done always matches Sched's per-kind counts — for any
	// worker count.
	Done Tally
	// JobNodes maps each composed job (Spec.Jobs order) to the fabric
	// nodes its ranks landed on: JobNodes[j][r] is the node of job j's
	// rank r. nil for single-workload specs.
	JobNodes [][]int
	// Workers is the resolved worker count (1 = serial engine).
	Workers int
	// Parallel reports whether the sharded parallel engine ran the
	// simulation.
	Parallel bool
	// Net holds the fabric counters for backends that track them (pkt);
	// nil otherwise.
	Net *NetStats
	// Metrics is the run's atlahs.metrics/v1 snapshot: engine and
	// scheduler execution counters (windows, adaptive widenings, peak
	// queue depths, ...). Window counts are deterministic; the
	// execution-strategy counters describe how this process ran them and
	// follow the worker budget, like Workers and Wall.
	Metrics *results.MetricsSnapshot
	// Wall is the host time the simulation took.
	Wall time.Duration
}

// resolveWorkers maps the Spec.Workers convention onto an effective worker
// count: < 0 means GOMAXPROCS, 0 and 1 mean serial.
func resolveWorkers(workers int) int {
	if workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if workers == 0 {
		return 1
	}
	return workers
}

// Tally counts executed GOAL ops by kind.
type Tally struct {
	Calcs, Sends, Recvs int64
}

// Total sums the tally across kinds.
func (t Tally) Total() int64 { return t.Calcs + t.Sends + t.Recvs }

// Run executes the spec: resolve the workload, build the backend through
// the registry, pick the serial or parallel engine from the backend's
// declared lookahead, simulate, and stream callbacks to the spec's
// Observer. Results are deterministic: they never depend on Workers or on
// wall-clock conditions.
//
// Cancellation is cooperative at op granularity: when ctx is cancellable,
// the run stops near the next op completion after ctx ends and Run returns
// ctx's error.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sch, jobNodes, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	name := spec.BackendName()
	def, _ := Lookup(name)
	be, err := def.New(spec.Config, Env{Ranks: sch.NumRanks(), Seed: spec.Seed})
	if err != nil {
		return nil, err
	}

	workers := resolveWorkers(spec.Workers)
	lookahead := core.LookaheadOf(be)
	parallel := workers > 1 && lookahead > 0 && sch.NumRanks() > 1
	var eng engine.Sim
	if parallel {
		eng = engine.NewParallel(sch.NumRanks(), workers, lookahead)
	} else {
		workers = 1
		eng = engine.New()
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if spec.Timeline != nil {
		if pe, ok := eng.(*engine.ParEngine); ok {
			pe.SetTracer(spec.Timeline)
		}
	}
	st := sch.ComputeStats()
	runBE := &observedBackend{
		inner:   be,
		sch:     sch,
		obs:     spec.Observer,
		tl:      spec.Timeline,
		every:   spec.ProgressEvery,
		total:   st.Ops,
		ctx:     ctx,
		stop:    eng.(interface{ Stop() }),
		track:   spec.Observer != nil || ctx.Done() != nil,
		perRank: make([]paddedTally, sch.NumRanks()),
	}
	if spec.Observer != nil {
		spec.Observer.RunStarted(RunInfo{
			Backend:  name,
			Stats:    st,
			Workers:  workers,
			Parallel: parallel,
		})
	}

	start := time.Now()
	res, err := sched.Run(eng, sch, runBE, sched.Options{CalcScale: spec.CalcScale})
	wall := time.Since(start)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}

	out := &Result{
		Runtime:  res.Runtime,
		RankEnd:  res.RankEnd,
		Ops:      res.Ops,
		Events:   res.Events,
		Backend:  name,
		Ranks:    sch.NumRanks(),
		Sched:    st,
		Done:     runBE.tally(),
		JobNodes: jobNodes,
		Workers:  workers,
		Parallel: parallel,
		Wall:     wall,
		Metrics:  runMetrics(eng, res),
	}
	if sp, ok := be.(interface{ NetStats() pktnet.Stats }); ok {
		ns := sp.NetStats()
		out.Net = &ns
		if spec.Observer != nil {
			spec.Observer.NetStats(ns)
		}
	}
	return out, nil
}

// observedBackend decorates every run's backend to intercept the
// completion callback for observer streaming, per-kind op tallies (the
// Result.Done accounting) and cooperative cancellation. It adds no engine
// events and leaves the completion delivery order untouched, so the
// decoration never changes simulated results.
//
// The tally is counted rather than copied from the schedule on purpose:
// it is the run's evidence that every op completed exactly once, so an
// engine bug that dropped or double-delivered completions would surface
// as a Done/Sched mismatch in the result tests. Counters are per rank
// and non-atomic — completions run on the op's rank lane (the scheduler
// relies on the same guarantee for its own bookkeeping), and the lanes
// join before Run reads the sums — so the hot path pays one plain
// increment, with no cross-worker cache-line contention.
type observedBackend struct {
	inner core.Backend
	sch   *goal.Schedule
	obs   Observer
	tl    *telemetry.Timeline
	every int64
	total int64
	ctx   context.Context
	stop  interface{ Stop() }
	// track gates the global completion counter: it only feeds observer
	// progress events and ctx polling, so untracked runs skip the shared
	// atomic entirely.
	track   bool
	done    atomic.Int64
	perRank []paddedTally
}

// paddedTally pads each rank's counters to a cache line so neighbouring
// ranks on different worker lanes do not false-share.
type paddedTally struct {
	Tally
	_ [64 - unsafe.Sizeof(Tally{})%64]byte
}

// tally sums the per-rank completion counters; callers may only invoke it
// after the run has joined its lanes.
func (o *observedBackend) tally() Tally {
	var t Tally
	for i := range o.perRank {
		t.Calcs += o.perRank[i].Calcs
		t.Sends += o.perRank[i].Sends
		t.Recvs += o.perRank[i].Recvs
	}
	return t
}

// ctxCheckMask throttles ctx polling to every 1024 op completions.
const ctxCheckMask = 1<<10 - 1

// Name implements core.Backend.
func (o *observedBackend) Name() string { return o.inner.Name() }

// Setup implements core.Backend, wrapping the scheduler's completion
// callback.
func (o *observedBackend) Setup(nranks int, eng engine.Sim, over core.CompletionFunc) error {
	return o.inner.Setup(nranks, eng, func(h core.Handle, at simtime.Time) {
		kind := o.sch.Ranks[h.Rank()].Ops[h.Op()].Kind
		t := &o.perRank[h.Rank()]
		switch kind {
		case goal.KindCalc:
			t.Calcs++
		case goal.KindSend:
			t.Sends++
		case goal.KindRecv:
			t.Recvs++
		}
		if o.tl != nil {
			o.tl.Op(h.Rank(), kind.String(), at)
		}
		if o.track {
			n := o.done.Add(1)
			if o.obs != nil {
				o.obs.OpCompleted(OpEvent{
					Rank: h.Rank(),
					Op:   h.Op(),
					Kind: kind,
					At:   at,
				})
				if o.every > 0 && n%o.every == 0 {
					o.obs.Progress(ProgressEvent{Done: n, Total: o.total, At: at})
				}
			}
			if o.ctx.Done() != nil && n&ctxCheckMask == 0 && o.ctx.Err() != nil {
				o.stop.Stop()
			}
		}
		over(h, at)
	})
}

// Send implements core.Backend.
func (o *observedBackend) Send(ev core.SendEvent) { o.inner.Send(ev) }

// Recv implements core.Backend.
func (o *observedBackend) Recv(ev core.RecvEvent) { o.inner.Recv(ev) }

// Calc implements core.Backend.
func (o *observedBackend) Calc(ev core.CalcEvent) { o.inner.Calc(ev) }

package sim

import (
	"context"
	"runtime"
	"time"

	"atlahs/internal/backend"
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
// workload accounting), the scheduler's executed-op tallies and the
// backend's fabric counters. It is the one carrier of what a run measured:
// an Observer streams the run while it executes, and everything reported
// once, after the last event, is here. Every field is deterministic except
// Wall.
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
	// Done tallies executed ops by kind, counted by the scheduler as the
	// backend reports each one over (not copied from Sched). A successful
	// run completes every scheduled op exactly once (the scheduler panics
	// on a second completion and errors on deadlock instead of returning
	// partial results), so Done always matches Sched's per-kind counts —
	// for any worker count.
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
	// nil otherwise. It is the one place a run reports them.
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
// the registry, pick the engine, simulate, and stream callbacks to the
// spec's Observer. Results are deterministic: they never depend on the
// engine, on Workers or on wall-clock conditions.
//
// A run is watched when it has an Observer, a Timeline or a ctx that can
// be cancelled. A watched run is serial whatever Workers says, so every
// callback and every timeline instant comes from the goroutine that called
// Run. Only an unwatched run with Workers > 1 on a backend that declares a
// lookahead runs on the lane engine.
//
// A run that succeeds leaves its working state — the scheduler's arrays,
// the serial engine's event slab and, once Drained proves it clean, the
// backend's: LGS's, or the packet backend's with its network, which a
// later run on the same fabric rebinds instead of building the fabric
// again — for a later run (runState), which is why a warm process
// allocates little beyond a run's input and Result. Nothing carried over
// can change a result.
//
// Cancellation is cooperative at op granularity: when ctx is cancellable,
// the run stops near the next op completion after ctx ends and Run returns
// ctx's error. An unwatched run hands the registry's backend to the
// scheduler unwrapped.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rw, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	sch, jobNodes := rw.sched, rw.jobNodes
	name := spec.BackendName()
	def, _ := Lookup(name)
	be, err := def.New(spec.Config, Env{Ranks: sch.NumRanks(), Seed: spec.Seed})
	if err != nil {
		return nil, err
	}

	watched := spec.Observer != nil || spec.Timeline != nil || ctx.Done() != nil
	workers := resolveWorkers(spec.Workers)
	lookahead := core.LookaheadOf(be)
	parallel := !watched && workers > 1 && lookahead > 0 && sch.NumRanks() > 1
	if !parallel {
		workers = 1
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// From here the run works in a recycled state, which it gives back for
	// the next run only if it succeeds; a run that fails, is cancelled or
	// panics gives back nothing (see recycle.go).
	rs := runStates.Take()
	lgs, _ := be.(*backend.LGS)
	if lgs != nil && rs.lgs != nil {
		lgs.Adopt(rs.lgs)
		rs.lgs = nil
	}
	pkt, _ := be.(*backend.NetBackend)
	if pkt != nil && pkt.Name() != "pkt" {
		pkt = nil // fluid: see runState
	}
	if pkt != nil && rs.pkt != nil {
		pkt.Adopt(rs.pkt)
		rs.pkt = nil
	}
	var eng engine.Sim
	if parallel {
		eng = engine.NewParallel(sch.NumRanks(), workers, lookahead)
	} else {
		if rs.eng == nil {
			rs.eng = engine.New()
		}
		rs.eng.Reset()
		eng = rs.eng
	}

	st := sch.ComputeStats()
	runBE := be
	if watched {
		runBE = &streamed{
			Backend: be,
			sch:     sch,
			obs:     spec.Observer,
			tl:      spec.Timeline,
			every:   spec.ProgressEvery,
			total:   st.Ops,
			ctx:     ctx,
			eng:     rs.eng,
		}
	}
	if spec.Observer != nil {
		spec.Observer.RunStarted(RunInfo{Backend: name, Stats: st})
	}

	start := time.Now()
	var res *sched.Result
	if !rw.validated {
		err = validate(sch)
	}
	if err == nil {
		res, err = rs.sched.RunValidated(eng, sch, runBE, sched.Options{CalcScale: spec.CalcScale})
	}
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
		Done:     Tally{Calcs: res.Calcs, Sends: res.Sends, Recvs: res.Recvs},
		JobNodes: jobNodes,
		Workers:  workers,
		Parallel: parallel,
		Wall:     wall,
		Metrics:  runMetrics(eng, res),
	}
	if sp, ok := be.(interface{ NetStats() *pktnet.Stats }); ok {
		out.Net = sp.NetStats()
	}
	if lgs != nil && lgs.Drained() == nil {
		lgs.Unbind()
		rs.lgs = lgs
	}
	if pkt != nil && pkt.Drained() == nil {
		pkt.Unbind()
		rs.pkt = pkt
	}
	runStates.Put(rs)
	return out, nil
}

// validate is Schedule.Validate: the check Run makes of a schedule its
// resolution did not validate (see resolvedWorkload), held in a variable
// so that tests can count the checks.
var validate = (*goal.Schedule).Validate

// streamed wraps a watched run's backend: the completion callback records
// a timeline instant, streams OpCompleted and Progress to the Observer,
// and polls a cancellable ctx, stopping the serial engine once it ends. It
// adds no engine events and leaves the completion delivery order
// untouched, so the wrapping never changes simulated results. Counting
// completions is sched.Run's job; done only numbers them for Progress and
// the ctx poll.
type streamed struct {
	core.Backend
	sch   *goal.Schedule
	obs   Observer
	tl    *telemetry.Timeline
	every int64
	total int64
	ctx   context.Context
	eng   *engine.Engine
	done  int64
}

// ctxCheckMask throttles ctx polling to every 1024 op completions.
const ctxCheckMask = 1<<10 - 1

// Setup implements core.Backend, wrapping the scheduler's completion
// callback.
func (s *streamed) Setup(nranks int, eng engine.Sim, over core.CompletionFunc) error {
	return s.Backend.Setup(nranks, eng, func(h core.Handle, at simtime.Time) {
		kind := s.sch.Ranks[h.Rank()].Kind(int(h.Op()))
		if s.tl != nil {
			s.tl.Op(h.Rank(), kind.String(), at)
		}
		s.done++
		n := s.done
		if s.obs != nil {
			s.obs.OpCompleted(OpEvent{Rank: h.Rank(), Op: h.Op(), Kind: kind, At: at})
			if s.every > 0 && n%s.every == 0 {
				s.obs.Progress(ProgressEvent{Done: n, Total: s.total, At: at})
			}
		}
		if n&ctxCheckMask == 0 && s.ctx.Err() != nil {
			s.eng.Stop()
		}
		over(h, at)
	})
}

// Package sched implements the GOAL scheduler: it walks every rank's task
// DAG, issues operations to an ATLAHS backend as their dependencies
// resolve, and collects completion times. It is the "Workload Simulation
// Pipeline" box of the paper's Fig 7: the scheduler owns GOAL progress,
// the backend owns the clock and the network model.
//
// Dependency semantics: an op becomes eligible once all its `requires`
// dependencies have completed and all its `irequires` dependencies have
// started (approximated as: have been issued to the backend). Compute
// stream serialisation is the backend's responsibility, since stream
// occupancy depends on the backend's cost model.
//
// What a run needs per op — a dependency counter, issued and completed
// flags, the successor tables that Deps.InvertInto fills — lives in a
// State, which sim.Run keeps from one successful run to the next: a warm
// process allocates for the scheduler only the Result and its RankEnd.
// Run itself starts from a new State.
package sched

import (
	"fmt"

	"atlahs/internal/core"
	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/simtime"
)

// Options tunes a simulation run.
type Options struct {
	// CalcScale multiplies every calc duration (hardware adaptation factor,
	// paper §7). 0 means 1.0.
	CalcScale float64
}

// Result summarises a completed simulation.
type Result struct {
	// Runtime is the completion time of the last op in the schedule.
	Runtime simtime.Duration
	// RankEnd is the completion time of each rank's last op.
	RankEnd []simtime.Time
	// Ops is the number of executed GOAL ops.
	Ops int64
	// Events is the number of engine events processed.
	Events uint64
	// Calcs, Sends and Recvs count the executed ops by kind, at completion:
	// the scheduler is the one place a run counts what its backend
	// reported over, and it panics on a second completion of one op.
	Calcs, Sends, Recvs int64
	// PeakOutstanding is the largest number of simultaneously in-flight
	// (issued but not completed) ops on any single rank — the scheduler's
	// ready-queue depth high-water mark.
	PeakOutstanding int
}

// The simulated clock is an int64 count of picoseconds, about 106 days.
// Run refuses, before any event is scheduled, a schedule that could carry
// a backend's arithmetic past it: one op alone (a 2^55-byte send times a
// per-byte gap, a 2^63-1 ns calc times 1000 ps) or the sum of all of them
// down one dependency chain. Backends therefore only ever see non-negative
// durations and times that add without wrapping — which the FIFO order of
// their completion queues relies on — and a hostile GOAL file is an error
// from Run, not a panic out of Engine.Schedule or a wrapped-around runtime.
const (
	// maxMessageBytes bounds one send or receive (1 TiB).
	maxMessageBytes = 1 << 40
	// horizon bounds the simulated time a schedule may ask for (about 53
	// days): every scaled calc duration plus every message byte at
	// nominalPsPerByte. It is half the clock's range; the other half is
	// head-room for what the sum leaves out (per-message latencies and
	// overheads, retransmissions).
	horizon = simtime.Duration(1) << 62
	// nominalPsPerByte is what the budget charges a byte of a send or a
	// receive: more than any built-in model does, summed over everything
	// it bills per byte (LGS 2·G + 2·O: 360 ps at the HPC parameters; the
	// default 200 Gb/s fabric 40 ps a hop). A model configured slower
	// than ~8 Gb/s has proportionally less head-room.
	nominalPsPerByte = 1024
)

// charge adds op's demand on the simulated clock to *budget and reports an
// error if the op alone or the running sum is out of range.
func charge(budget *simtime.Duration, rank, i int, op *goal.Op, scale float64) error {
	var d simtime.Duration
	if op.Kind == goal.KindCalc {
		// Compared as float64 nanoseconds: CalcDuration's own ns -> ps
		// conversion is what overflows.
		if ns := float64(op.Size) * scale; !(ns <= horizon.Nanoseconds()) {
			return fmt.Errorf("sched: rank %d op %d: calc of %d ns (scale %g) is beyond the simulated clock's range (%v)", rank, i, op.Size, scale, horizon)
		}
		d = op.CalcDuration(scale)
	} else {
		if op.Size > maxMessageBytes {
			return fmt.Errorf("sched: rank %d op %d: %s of %d bytes exceeds the %d-byte message bound", rank, i, op.Kind, op.Size, int64(maxMessageBytes))
		}
		d = simtime.Duration(op.Size) * nominalPsPerByte
	}
	if *budget += d; *budget > horizon {
		return fmt.Errorf("sched: schedule asks for more simulated time than the clock holds (%v of calcs and message bytes by rank %d op %d)", horizon, rank, i)
	}
	return nil
}

type rankState struct {
	// pending counts, per op, the dependencies still in its way: `requires`
	// not yet completed plus `irequires` not yet started. An op is eligible
	// when the sum reaches zero, whichever side takes it there.
	pending   []int32
	reqSucc   goal.Deps // ops whose `requires` name this op
	ireqSucc  goal.Deps // ops whose `irequires` name this op
	issued    []bool
	completed []bool
	// outstanding/peakOut track issued-but-incomplete ops, done counts
	// completed ops by goal.Kind and end is the latest completion time.
	// Like the other fields they are only touched from the op's rank lane,
	// which may run concurrently with other ranks' lanes on the parallel
	// engine, so no atomics.
	outstanding int32
	peakOut     int32
	done        [3]int64
	end         simtime.Time
}

type runner struct {
	eng   engine.Sim
	s     *goal.Schedule
	be    core.Backend
	scale float64
	ranks []rankState
	total int64
}

// State is the scheduler's working state — per rank, the dependency
// counters, the issued and completed flags and the successor tables —
// kept from one run to the next. A run sizes it to its schedule, reusing
// every array that is large enough, so a State that has served a schedule
// serves the same one again without allocating. A State serves one run at a time; the next run rewrites
// everything it reads. The zero State is ready.
type State struct {
	ranks []rankState
}

// Run simulates schedule s on backend be using eng. It returns an error if
// s is structurally invalid (whatever Schedule.Validate rejects), or if it
// deadlocks (events drained with ops still pending), which indicates
// unmatched sends/recvs.
func Run(eng engine.Sim, s *goal.Schedule, be core.Backend, opts Options) (*Result, error) {
	return new(State).Run(eng, s, be, opts)
}

// Run is sched.Run on state's arrays.
func (state *State) Run(eng engine.Sim, s *goal.Schedule, be core.Backend, opts Options) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if pe, ok := eng.(*engine.ParEngine); ok && pe.Lanes() < s.NumRanks() {
		return nil, fmt.Errorf("sched: parallel engine has %d lanes for %d ranks", pe.Lanes(), s.NumRanks())
	}
	scale := opts.CalcScale
	if scale == 0 {
		scale = 1
	}
	if !(scale > 0) {
		return nil, fmt.Errorf("sched: CalcScale %g is not a positive factor", scale)
	}
	if n := s.NumRanks(); n > cap(state.ranks) {
		// Ranks past the last run's count keep their arrays for a later one.
		grown := make([]rankState, n)
		copy(grown, state.ranks[:cap(state.ranks)])
		state.ranks = grown
	}
	r := &runner{
		eng:   eng,
		s:     s,
		be:    be,
		scale: scale,
		ranks: state.ranks[:s.NumRanks()],
	}
	if err := be.Setup(s.NumRanks(), eng, r.over); err != nil {
		return nil, err
	}
	var budget simtime.Duration
	for rank := range s.Ranks {
		rp := &s.Ranks[rank]
		st := &r.ranks[rank]
		n := len(rp.Ops)
		st.reset(rp)
		for i := 0; i < n; i++ {
			if err := charge(&budget, rank, i, &rp.Ops[i], scale); err != nil {
				return nil, err
			}
			st.pending[i] = int32(len(rp.Requires.Of(i)) + len(rp.IRequires.Of(i)))
		}
		r.total += int64(n)
	}
	// seed: issue all ops with no dependencies
	for rank := range s.Ranks {
		st := &r.ranks[rank]
		for i := range s.Ranks[rank].Ops {
			// an earlier seed issue may have already cascaded here via an
			// irequires edge
			if st.pending[i] == 0 && !st.issued[i] {
				r.issue(rank, int32(i))
			}
		}
	}
	eng.Run()
	res := &Result{RankEnd: make([]simtime.Time, len(r.ranks)), Events: eng.EventsProcessed()}
	for i := range r.ranks {
		st := &r.ranks[i]
		res.RankEnd[i] = st.end
		if d := simtime.Duration(st.end); d > res.Runtime {
			res.Runtime = d
		}
		res.Calcs += st.done[goal.KindCalc]
		res.Sends += st.done[goal.KindSend]
		res.Recvs += st.done[goal.KindRecv]
		if p := int(st.peakOut); p > res.PeakOutstanding {
			res.PeakOutstanding = p
		}
	}
	if res.Ops = res.Calcs + res.Sends + res.Recvs; res.Ops != r.total {
		return nil, r.deadlockError(res.Ops)
	}
	return res, nil
}

func (r *runner) issue(rank int, op int32) {
	st := &r.ranks[rank]
	if st.issued[op] {
		panic(fmt.Sprintf("sched: double issue of rank %d op %d", rank, op))
	}
	st.issued[op] = true
	st.outstanding++
	if st.outstanding > st.peakOut {
		st.peakOut = st.outstanding
	}
	// The op has started: take it out of the way of its `irequires`
	// successors and issue those it was the last dependency of. (The same
	// loop closes over; as a shared method it is a call per op that cannot
	// be inlined — it recurses into issue — and read +7% on the scheduler's
	// null-backend run.)
	if st.ireqSucc.Len() > 0 {
		for _, next := range st.ireqSucc.Of(int(op)) {
			if st.pending[next]--; st.pending[next] == 0 {
				r.issue(rank, next)
			}
		}
	}
	o := &r.s.Ranks[rank].Ops[op]
	h := core.MakeHandle(rank, op)
	switch o.Kind {
	case goal.KindCalc:
		r.be.Calc(core.CalcEvent{Handle: h, Rank: rank, CPU: o.CPU, Duration: o.CalcDuration(r.scale)})
	case goal.KindSend:
		r.be.Send(core.SendEvent{Handle: h, Src: rank, Dst: int(o.Peer), Size: o.Size, Tag: o.Tag, CPU: o.CPU})
	case goal.KindRecv:
		r.be.Recv(core.RecvEvent{Handle: h, Dst: rank, Src: int(o.Peer), Size: o.Size, Tag: o.Tag, CPU: o.CPU})
	}
}

// over is the backend completion callback (eventOver in the paper).
func (r *runner) over(h core.Handle, at simtime.Time) {
	rank, op := h.Rank(), h.Op()
	st := &r.ranks[rank]
	if st.completed[op] {
		panic(fmt.Sprintf("sched: double completion of rank %d op %d", rank, op))
	}
	st.completed[op] = true
	st.outstanding--
	st.done[r.s.Ranks[rank].Ops[op].Kind]++
	if at > st.end {
		st.end = at
	}
	// ... and completed: likewise for its `requires` successors.
	if st.reqSucc.Len() > 0 {
		for _, next := range st.reqSucc.Of(int(op)) {
			if st.pending[next]--; st.pending[next] == 0 {
				r.issue(rank, next)
			}
		}
	}
}

// reset readies the rank's state for program rp: the counters (which the
// seeding pass then fills), cleared flags, zeroed tallies and both successor
// tables, each in the last run's arrays where they are large enough.
func (st *rankState) reset(rp *goal.RankProgram) {
	n := len(rp.Ops)
	if cap(st.pending) < n {
		st.pending = make([]int32, n)
	}
	st.pending = st.pending[:n]
	// One array for both flag slices; issued keeps its capacity, which is
	// how the next reset finds the whole array.
	flags := st.issued[:cap(st.issued)]
	if cap(flags) < 2*n {
		flags = make([]bool, 2*n)
	} else {
		clear(flags[:2*n])
	}
	st.issued = flags[:n]
	st.completed = flags[n : 2*n]
	st.reqSucc = successors(st.reqSucc, rp.Requires)
	st.ireqSucc = successors(st.ireqSucc, rp.IRequires)
	st.outstanding, st.peakOut, st.done, st.end = 0, 0, [3]int64{}, 0
}

// successors inverts a dependency table into the table of each op's
// successors, in dst's arrays. A table without edges (`irequires`, on most
// schedules) is not inverted: its successor table is empty, and dst's
// arrays stay with it for a later run.
func successors(dst, deps goal.Deps) goal.Deps {
	if deps.NumEdges() == 0 {
		return dst.Cleared()
	}
	return deps.InvertInto(dst)
}

func (r *runner) deadlockError(done int64) error {
	var firstRank, issuedNotDone, neverIssued int
	firstRank = -1
	for rank := range r.ranks {
		st := &r.ranks[rank]
		for i := range st.issued {
			switch {
			case st.issued[i] && !st.completed[i]:
				issuedNotDone++
				if firstRank < 0 {
					firstRank = rank
				}
			case !st.issued[i]:
				neverIssued++
				if firstRank < 0 {
					firstRank = rank
				}
			}
		}
	}
	return fmt.Errorf("sched: deadlock after %d/%d ops: %d issued-but-incomplete (likely unmatched sends/recvs), %d blocked on dependencies; first stuck rank %d",
		done, r.total, issuedNotDone, neverIssued, firstRank)
}

// Package schedgen converts MPI traces into GOAL schedules — the Schedgen
// component of the toolchain (paper §3.1.1). Computation between
// consecutive MPI calls is inferred from their timestamps; collective
// operations are substituted with point-to-point algorithms chosen per
// collective kind (ring, recursive doubling, binomial tree, ...), which is
// what lets a single trace be re-simulated under different collective
// implementations.
package schedgen

import (
	"fmt"

	"atlahs/internal/collective"
	"atlahs/internal/goal"
	"atlahs/internal/trace/mpitrace"
)

// Options configures trace conversion.
type Options struct {
	// Algos overrides the decomposition algorithm per collective kind
	// (default collective.Auto).
	Algos map[collective.Kind]collective.Algo
	// CPU is the compute stream generated ops run on (MPI apps: stream 0).
	CPU int32
	// MinComputeNs drops inferred computation gaps shorter than this
	// (trace noise floor). 0 keeps every positive gap.
	MinComputeNs int64
	// ReduceNsPerByte charges local reduction cost inside reducing
	// collectives.
	ReduceNsPerByte float64
}

// collTagBase namespaces collective tags away from application P2P tags.
const collTagBase = 1 << 24

var collKind = map[mpitrace.OpType]collective.Kind{
	mpitrace.Allreduce:     collective.Allreduce,
	mpitrace.Bcast:         collective.Bcast,
	mpitrace.Allgather:     collective.Allgather,
	mpitrace.ReduceScatter: collective.ReduceScatter,
	mpitrace.Alltoall:      collective.Alltoall,
	mpitrace.Barrier:       collective.Barrier,
	mpitrace.ReduceOp:      collective.Reduce,
	mpitrace.Gather:        collective.Gather,
	mpitrace.Scatter:       collective.Scatter,
}

// Generate converts an MPI trace into a GOAL schedule.
func Generate(t *mpitrace.Trace, opt Options) (*goal.Schedule, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := t.NumRanks()
	// split each rank's events into segments separated by collectives;
	// MPI requires every rank to call collectives in the same order, which
	// is what lets us emit them in lockstep.
	type segment struct {
		events []mpitrace.Event // p2p/local events before the collective: a window of the trace
		coll   *mpitrace.Event  // nil for the trailing segment
	}
	segs := make([][]segment, n)
	for r := 0; r < n; r++ {
		evs := t.Events[r]
		ncoll := 0
		for i := range evs {
			if evs[i].Type.IsCollective() {
				ncoll++
			}
		}
		segs[r] = make([]segment, 0, ncoll+1)
		lo := 0
		for i := range evs {
			if evs[i].Type.IsCollective() {
				segs[r] = append(segs[r], segment{events: evs[lo:i], coll: &evs[i]})
				lo = i + 1
			}
		}
		segs[r] = append(segs[r], segment{events: evs[lo:]})
	}
	nseg := len(segs[0])
	for r := 1; r < n; r++ {
		if len(segs[r]) != nseg {
			return nil, fmt.Errorf("schedgen: rank %d saw %d collectives, rank 0 saw %d — traces inconsistent",
				r, len(segs[r])-1, nseg-1)
		}
	}

	b := goal.NewBuilder(n)
	heads := make([]goal.OpID, n)
	lastEnd := make([]int64, n)
	pendingReq := make([]map[int64]goal.OpID, n)
	for r := range heads {
		heads[r] = -1
		pendingReq[r] = map[int64]goal.OpID{}
	}
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}

	collIdx := 0
	for s := 0; s < nseg; s++ {
		for r := 0; r < n; r++ {
			var err error
			heads[r], err = emitSegment(b.Rank(r), segs[r][s].events, heads[r], &lastEnd[r], pendingReq[r], opt)
			if err != nil {
				return nil, fmt.Errorf("schedgen: rank %d: %w", r, err)
			}
		}
		if s == nseg-1 {
			break
		}
		ref := segs[0][s].coll
		kind, ok := collKind[ref.Type]
		if !ok {
			return nil, fmt.Errorf("schedgen: unsupported collective %v", ref.Type)
		}
		for r := 0; r < n; r++ {
			if k2 := collKind[segs[r][s].coll.Type]; k2 != kind {
				return nil, fmt.Errorf("schedgen: collective %d mismatch: rank 0 %v vs rank %d %v",
					collIdx, kind, r, k2)
			}
			// computation between the previous call and this collective
			if gap := segs[r][s].coll.Start - lastEnd[r]; gap > 0 && gap >= opt.MinComputeNs {
				rb := b.Rank(r)
				c := rb.CalcOn(gap, opt.CPU)
				if heads[r] >= 0 {
					rb.Requires(c, heads[r])
				}
				heads[r] = c
			}
			// waiting time inside the collective is re-simulated, not compute
			lastEnd[r] = segs[r][s].coll.End
		}
		root := ref.Root
		if root < 0 {
			root = 0
		}
		algo := collective.Auto
		if opt.Algos != nil {
			algo = opt.Algos[kind]
		}
		copt := collective.Options{
			CPU:             opt.CPU,
			TagBase:         int32(collTagBase + collIdx*collective.TagSpan),
			ReduceNsPerByte: opt.ReduceNsPerByte,
		}
		for r := 0; r < n; r++ {
			var err error
			if heads[r], err = collective.Decompose(b.Rank(r), kind, algo, group, r, root, ref.Bytes, copt, heads[r]); err != nil {
				return nil, fmt.Errorf("schedgen: collective %d (%v): %w", collIdx, kind, err)
			}
		}
		collIdx++
	}

	sch := b.Build()
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	return sch, nil
}

// emitSegment converts one rank's p2p/local events, chaining from head,
// and returns the new chain head.
func emitSegment(rb *goal.RankBuilder, events []mpitrace.Event, head goal.OpID, lastEnd *int64, reqs map[int64]goal.OpID, opt Options) (goal.OpID, error) {
	chain := func(id goal.OpID) {
		if head >= 0 {
			rb.Requires(id, head)
		}
		head = id
	}
	for _, ev := range events {
		// inferred computation between the previous call's end and this
		// call's start
		if *lastEnd > 0 || ev.Start > 0 {
			gap := ev.Start - *lastEnd
			if gap > 0 && gap >= opt.MinComputeNs {
				chain(rb.CalcOn(gap, opt.CPU))
			}
		}
		*lastEnd = ev.End
		switch ev.Type {
		case mpitrace.Init, mpitrace.Finalize:
			// bookkeeping only
		case mpitrace.Send:
			chain(rb.SendOn(ev.Bytes, ev.Peer, ev.Tag, opt.CPU))
		case mpitrace.Recv:
			chain(rb.RecvOn(ev.Bytes, ev.Peer, ev.Tag, opt.CPU))
		case mpitrace.Isend:
			id := rb.SendOn(ev.Bytes, ev.Peer, ev.Tag, opt.CPU)
			if head >= 0 {
				rb.Requires(id, head)
			}
			if ev.Req != 0 {
				reqs[ev.Req] = id
			}
		case mpitrace.Irecv:
			id := rb.RecvOn(ev.Bytes, ev.Peer, ev.Tag, opt.CPU)
			if head >= 0 {
				rb.Requires(id, head)
			}
			if ev.Req != 0 {
				reqs[ev.Req] = id
			}
		case mpitrace.Wait:
			dep, ok := reqs[ev.Req]
			if !ok {
				return head, fmt.Errorf("MPI_Wait for unknown request %d", ev.Req)
			}
			delete(reqs, ev.Req)
			d := rb.CalcOn(0, opt.CPU)
			if head >= 0 {
				rb.Requires(d, head)
			}
			rb.Requires(d, dep)
			head = d
		default:
			return head, fmt.Errorf("unexpected event %v in p2p segment", ev.Type)
		}
	}
	return head, nil
}

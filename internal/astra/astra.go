// Package astra is "AstraSim-lite": a baseline simulator in the style of
// ASTRA-sim 2.0 (Won et al., 2023) used for the paper's comparisons
// (§5.2). It consumes Chakra-like execution traces and simulates them with
//
//   - a system layer that decomposes collectives chunk-by-chunk into ring
//     phases (the reason AstraSim's runtime grows with trace size), and
//   - a congestion-unaware analytical network: every transfer takes
//     latency + bytes/bandwidth on a one-dimensional ring topology,
//     regardless of what else is in flight. Latency and bandwidth are the
//     LGS calibration (3.7 us, 25 GB/s) and phases move in 64 KiB chunks,
//     so Simulate takes nothing but the trace.
//
// The baseline shares AstraSim's real-trace limitations deliberately and
// honestly: the trace feeder supports collective nodes over the full world
// group only — point-to-point COMM_SEND/COMM_RECV nodes (pipeline
// parallelism) and subgroup collectives (tensor/expert parallelism) are
// rejected, which reproduces the paper's observation that AstraSim ran
// only the pure data-parallel configurations (Fig 8).
package astra

import (
	"fmt"

	"atlahs/internal/engine"
	"atlahs/internal/simtime"
	"atlahs/internal/trace/chakra"
)

// The analytical network's costs: the LGS calibration of §5.2.
const (
	latency    = 3700 * simtime.Nanosecond
	psPerByte  = 40 * simtime.Picosecond
	chunkBytes = 64 * 1024
)

// Result summarises a baseline simulation.
type Result struct {
	Runtime simtime.Duration
	RankEnd []simtime.Time
	// Phases counts simulated collective ring phases (the event volume).
	Phases int64
}

// Simulate runs the baseline on a Chakra trace.
func Simulate(t *chakra.Trace) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := t.NumRanks()
	if n == 0 {
		return nil, fmt.Errorf("astra: empty trace")
	}

	// The feeder walks every rank's graph in dependency order. Collectives
	// synchronise all ranks (they must all reach the same collective
	// before it can run — AstraSim's system layer behaves the same for
	// world-group collectives).
	type rankState struct {
		nodes []chakra.Node
		done  map[int64]simtime.Time // node id -> completion
		next  int
		clock simtime.Time
	}
	ranks := make([]rankState, n)
	collSeq := make([][]int, n) // indices of collective nodes per rank
	for r := 0; r < n; r++ {
		ranks[r] = rankState{nodes: t.Ranks[r], done: map[int64]simtime.Time{}}
		for i := range t.Ranks[r] {
			nd := &t.Ranks[r][i]
			switch nd.Type {
			case chakra.NodeSendComm, chakra.NodeRecvComm:
				return nil, fmt.Errorf("astra: rank %d node %d: point-to-point %s nodes are not supported by the real-trace feeder (pipeline/expert parallelism)",
					r, nd.ID, nd.Type)
			case chakra.NodeCollComm:
				if g := nd.StrAttrOr("comm_group", chakra.WorldGroup); g != chakra.WorldGroup {
					return nil, fmt.Errorf("astra: rank %d node %d: collective over subgroup %q unsupported — only the world group maps onto the 1-D topology",
						r, nd.ID, g)
				}
				collSeq[r] = append(collSeq[r], i)
			}
		}
	}
	for r := 1; r < n; r++ {
		if len(collSeq[r]) != len(collSeq[0]) {
			return nil, fmt.Errorf("astra: rank %d has %d collectives, rank 0 has %d", r, len(collSeq[r]), len(collSeq[0]))
		}
	}

	eng := engine.New()
	res := &Result{RankEnd: make([]simtime.Time, n), Phases: 0}

	// advance each rank's local compute up to its next collective
	runLocal := func(r *rankState) {
		for r.next < len(r.nodes) {
			nd := &r.nodes[r.next]
			if nd.Type == chakra.NodeCollComm {
				return
			}
			start := r.clock
			for _, d := range nd.CtrlDeps {
				if dt, ok := r.done[d]; ok && dt > start {
					start = dt
				}
			}
			for _, d := range nd.DataDeps {
				if dt, ok := r.done[d]; ok && dt > start {
					start = dt
				}
			}
			end := start.Add(simtime.Duration(nd.IntAttrOr("runtime", 0)) * simtime.Nanosecond)
			r.done[nd.ID] = end
			r.clock = end
			r.next++
		}
	}

	for r := range ranks {
		runLocal(&ranks[r])
	}
	for ci := 0; ci < len(collSeq[0]); ci++ {
		// all ranks must have reached the collective
		start := simtime.Time(0)
		var ref *chakra.Node
		for r := range ranks {
			nd := &ranks[r].nodes[collSeq[r][ci]]
			if ref == nil {
				ref = nd
			} else if nd.StrAttrOr("comm_type", "") != ref.StrAttrOr("comm_type", "") {
				return nil, fmt.Errorf("astra: collective %d type mismatch", ci)
			}
			if ranks[r].clock > start {
				start = ranks[r].clock
			}
		}
		dur := collectiveTime(ref, n, eng, res)
		end := start.Add(dur)
		for r := range ranks {
			nd := &ranks[r].nodes[collSeq[r][ci]]
			ranks[r].done[nd.ID] = end
			ranks[r].clock = end
			ranks[r].next = collSeq[r][ci] + 1
			runLocal(&ranks[r])
		}
	}
	for r := range ranks {
		if ranks[r].next != len(ranks[r].nodes) {
			return nil, fmt.Errorf("astra: rank %d stalled at node %d", r, ranks[r].next)
		}
		res.RankEnd[r] = ranks[r].clock
		if d := simtime.Duration(ranks[r].clock); d > res.Runtime {
			res.Runtime = d
		}
	}
	return res, nil
}

// collectiveTime decomposes one collective into chunked ring phases and
// simulates the phases through an event queue (chunk pipelining included),
// faithful to AstraSim's system-layer behaviour while staying congestion
// unaware: each phase costs latency + chunk/bandwidth, no queueing.
func collectiveTime(nd *chakra.Node, n int, eng *engine.Engine, res *Result) simtime.Duration {
	bytes := nd.IntAttrOr("comm_size", 0)
	if n <= 1 || bytes == 0 {
		return 0
	}
	steps := int64(0)
	perStepBytes := bytes
	switch nd.StrAttrOr("comm_type", chakra.CollAllReduce) {
	case chakra.CollAllReduce:
		steps = int64(2 * (n - 1))
		perStepBytes = bytes / int64(n)
	case chakra.CollAllGather, chakra.CollReduceScatter:
		steps = int64(n - 1)
		perStepBytes = bytes / int64(n)
	case chakra.CollAllToAll:
		steps = int64(n - 1)
		perStepBytes = bytes / int64(n)
	case chakra.CollBroadcast:
		steps = int64(n - 1)
	default:
		steps = int64(2 * (n - 1))
		perStepBytes = bytes / int64(n)
	}
	if perStepBytes <= 0 {
		perStepBytes = 1
	}
	nchunks := (perStepBytes + chunkBytes - 1) / chunkBytes
	chunk := (perStepBytes + nchunks - 1) / nchunks
	phase := latency + simtime.Duration(chunk)*psPerByte

	// chunk-pipelined ring: phases run through the event engine, one event
	// per (step, chunk) — this is where the baseline burns its time, like
	// the original
	eng.Reset()
	var finish simtime.Time
	for c := int64(0); c < nchunks; c++ {
		startAt := simtime.Time(c) * simtime.Time(phase) // pipelined injection
		for s := int64(0); s < steps; s++ {
			at := startAt.Add(simtime.Duration(s+1) * phase)
			eng.Schedule(at, func() {})
			res.Phases++
		}
	}
	finish = eng.Run()
	return simtime.Duration(finish)
}

// Package placement maps GOAL schedules onto cluster nodes and merges
// multiple jobs into a single simulation — the paper's multi-job and
// multi-tenant support (§3.2) and the job-placement case study (Fig 13).
//
// Multi-job: each application's ranks map to its own (disjoint) node set;
// the merged schedule simply interleaves independent DAGs. Multi-tenant:
// jobs may share nodes, in which case each job's compute streams are
// shifted to a private stream range so the shared node executes both
// concurrently, and message tags are namespaced per job so matching never
// crosses applications.
package placement

import (
	"fmt"

	"atlahs/internal/goal"
	"atlahs/internal/xrand"
)

// Strategy selects how a job's ranks are laid out on the cluster.
type Strategy int

// Strategies. Packed assigns consecutive nodes (locality-preserving);
// RandomStrat scatters ranks uniformly (the paper's "Random Allocation");
// RoundRobin stripes jobs across the cluster.
const (
	Packed Strategy = iota
	RandomStrat
	RoundRobin
)

func (s Strategy) String() string {
	switch s {
	case Packed:
		return "packed"
	case RandomStrat:
		return "random"
	case RoundRobin:
		return "roundrobin"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Job pairs a schedule with its rank->node mapping.
type Job struct {
	Sched *goal.Schedule
	Nodes []int // node of each rank; must be injective within the job
}

// PackedMapping maps rank i to node base+i.
func PackedMapping(nranks, base int) []int {
	m := make([]int, nranks)
	for i := range m {
		m[i] = base + i
	}
	return m
}

// SplitCluster assigns node sets to jobs of the given sizes over a cluster
// of nnodes nodes using the strategy. Packed lays jobs out contiguously in
// order; RandomStrat permutes all nodes first (seeded); RoundRobin deals
// nodes to jobs in turn.
func SplitCluster(nnodes int, sizes []int, strat Strategy, seed uint64) ([][]int, error) {
	total := 0
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("placement: non-positive job size %d", s)
		}
		total += s
	}
	if total > nnodes {
		return nil, fmt.Errorf("placement: %d ranks exceed %d nodes", total, nnodes)
	}
	out := make([][]int, len(sizes))
	switch strat {
	case Packed, RandomStrat:
		var order []int
		if strat == Packed {
			order = make([]int, nnodes)
			for i := range order {
				order[i] = i
			}
		} else {
			order = xrand.New(seed).Perm(nnodes)
		}
		next := 0
		for j, s := range sizes {
			out[j] = append([]int(nil), order[next:next+s]...)
			next += s
		}
	case RoundRobin:
		// deal nodes to jobs one at a time until each job is full
		idx := 0
		for {
			progressed := false
			for j, s := range sizes {
				if len(out[j]) < s {
					out[j] = append(out[j], idx)
					idx++
					progressed = true
				}
			}
			if !progressed {
				break
			}
		}
	default:
		return nil, fmt.Errorf("placement: unknown strategy %v", strat)
	}
	return out, nil
}

// Merge combines jobs onto a cluster of nnodes nodes, producing one
// schedule with nnodes ranks. Per-job compute streams are shifted into
// disjoint ranges and tags are namespaced per job, so jobs sharing a node
// (multi-tenancy) execute concurrently without interference in matching.
func Merge(nnodes int, jobs ...Job) (*goal.Schedule, error) {
	if nnodes <= 0 {
		return nil, fmt.Errorf("placement: non-positive node count")
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("placement: no jobs")
	}
	// tag namespace stride: must exceed any tag used by a job
	const tagStride = 1 << 20

	out := &goal.Schedule{Ranks: make([]goal.RankProgram, nnodes)}
	streamBase := int32(0)
	for j, job := range jobs {
		if job.Sched == nil {
			return nil, fmt.Errorf("placement: job %d has nil schedule", j)
		}
		if len(job.Nodes) != job.Sched.NumRanks() {
			return nil, fmt.Errorf("placement: job %d maps %d ranks with %d nodes", j, job.Sched.NumRanks(), len(job.Nodes))
		}
		seen := map[int]bool{}
		for r, nd := range job.Nodes {
			if nd < 0 || nd >= nnodes {
				return nil, fmt.Errorf("placement: job %d rank %d -> node %d out of range [0,%d)", j, r, nd, nnodes)
			}
			if seen[nd] {
				return nil, fmt.Errorf("placement: job %d maps two ranks to node %d", j, nd)
			}
			seen[nd] = true
		}
		var jobMaxStream int32
		for r := range job.Sched.Ranks {
			rp := &job.Sched.Ranks[r]
			node := job.Nodes[r]
			dst := &out.Ranks[node]
			base := int32(len(dst.Ops))
			for i := range rp.Ops {
				op := rp.Ops[i]
				if op.CPU > jobMaxStream {
					jobMaxStream = op.CPU
				}
				op.CPU += streamBase
				if op.Kind != goal.KindCalc {
					op.Peer = int32(job.Nodes[op.Peer])
					if op.Tag != goal.AnyTag {
						op.Tag += int32(j) * tagStride
					}
				}
				dst.Ops = append(dst.Ops, op)
			}
			dst.Requires.AppendShifted(rp.Requires, base)
			dst.IRequires.AppendShifted(rp.IRequires, base)
		}
		streamBase += jobMaxStream + 1
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// Remap returns a copy of s with rank i moved to node mapping[i] on a
// cluster of nnodes nodes — the single-job convenience over Merge.
func Remap(s *goal.Schedule, mapping []int, nnodes int) (*goal.Schedule, error) {
	return Merge(nnodes, Job{Sched: s, Nodes: mapping})
}

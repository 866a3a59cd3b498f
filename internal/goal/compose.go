package goal

import "fmt"

// Placement selects how composed jobs' ranks are laid out on the shared
// fabric. A policy only produces node sets (Nodes); Compose places them.
type Placement uint8

// Placement policies. PlacePacked gives each job a contiguous block of
// nodes in job order (locality-preserving: a job's traffic stays within
// its own ToRs on a fat tree). PlaceInterleaved deals nodes to jobs
// round-robin (scheduler-realistic fragmentation: every job's traffic
// crosses the core).
const (
	PlacePacked Placement = iota
	PlaceInterleaved
)

func (p Placement) String() string {
	switch p {
	case PlacePacked:
		return "packed"
	case PlaceInterleaved:
		return "interleaved"
	default:
		return fmt.Sprintf("placement(%d)", uint8(p))
	}
}

// Nodes lays jobs of the given rank counts out on a fabric of sum(sizes)
// nodes under the policy: nodes[j][r] is the node of job j's rank r, the
// node sets Compose takes.
func (p Placement) Nodes(sizes []int) ([][]int, error) {
	nodes := make([][]int, len(sizes))
	switch p {
	case PlacePacked:
		next := 0
		for j, s := range sizes {
			nodes[j] = make([]int, s)
			for r := range nodes[j] {
				nodes[j][r] = next
				next++
			}
		}
	case PlaceInterleaved:
		total := 0
		for _, s := range sizes {
			total += s
		}
		for next := 0; next < total; {
			for j, s := range sizes {
				if len(nodes[j]) < s {
					nodes[j] = append(nodes[j], next)
					next++
				}
			}
		}
	default:
		return nil, fmt.Errorf("goal: unknown placement %v", p)
	}
	return nodes, nil
}

// Compose merges independently-sourced schedules onto one fabric of
// sum-of-ranks nodes — the multi-job scenario layer (paper §3.2), and the
// one place jobs are laid onto fabric nodes. nodes[j][r] is the fabric
// node of job j's rank r; each job keeps its own DAG and its peers are
// rewritten to the global node numbering. The node sets must partition
// [0, Σ ranks): one node per rank, no node twice. A Placement's Nodes is
// one source of such sets; any partition will do (a random allocation,
// one job's ranks relabelled). Because jobs never share a node, message
// matching cannot cross jobs and no tag or stream rewriting is needed.
func Compose(nodes [][]int, jobs ...*Schedule) (*Schedule, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("goal: Compose with no jobs")
	}
	if len(nodes) != len(jobs) {
		return nil, fmt.Errorf("goal: Compose got %d node sets for %d jobs", len(nodes), len(jobs))
	}
	total := 0
	for j, job := range jobs {
		if job == nil {
			return nil, fmt.Errorf("goal: Compose job %d is nil", j)
		}
		if job.NumRanks() == 0 {
			return nil, fmt.Errorf("goal: Compose job %d has no ranks", j)
		}
		// Peers are rewritten through the job's node table below, so a
		// never-validated schedule with an out-of-range peer must be
		// rejected here rather than panic mid-merge.
		if err := job.Validate(); err != nil {
			return nil, fmt.Errorf("goal: Compose job %d: %w", j, err)
		}
		if len(nodes[j]) != job.NumRanks() {
			return nil, fmt.Errorf("goal: Compose job %d has %d ranks but %d nodes", j, job.NumRanks(), len(nodes[j]))
		}
		total += job.NumRanks()
	}
	// With one node per rank, Σ ranks nodes in range and none taken twice
	// cover the fabric: no node is left empty.
	owner := make([]int, total) // 1 + the job on each node, 0 while free
	for j, set := range nodes {
		for r, nd := range set {
			switch {
			case nd < 0 || nd >= total:
				return nil, fmt.Errorf("goal: Compose job %d rank %d on node %d, outside [0, %d)", j, r, nd, total)
			case owner[nd] == j+1:
				return nil, fmt.Errorf("goal: Compose job %d puts two ranks on node %d", j, nd)
			case owner[nd] != 0:
				return nil, fmt.Errorf("goal: Compose jobs %d and %d share node %d", owner[nd]-1, j, nd)
			}
			owner[nd] = j + 1
		}
	}

	out := &Schedule{Ranks: make([]RankProgram, total)}
	for j, job := range jobs {
		for r := range job.Ranks {
			rp := &job.Ranks[r]
			dst := &out.Ranks[nodes[j][r]]
			dst.Ops = append([]Op(nil), rp.Ops...)
			for i := range dst.Ops {
				if dst.Ops[i].Kind != KindCalc {
					dst.Ops[i].Peer = int32(nodes[j][dst.Ops[i].Peer])
				}
			}
			dst.Requires = rp.Requires.Clone()
			dst.IRequires = rp.IRequires.Clone()
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

package goal

import "fmt"

// Placement selects how composed jobs' ranks are laid out on the shared
// fabric.
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

// Compose merges independently-sourced schedules onto one fabric of
// sum-of-ranks nodes — the multi-job scenario layer (paper §3.2): each
// job keeps its own DAG, its ranks are mapped onto disjoint fabric nodes
// by the placement policy, and peers are rewritten to the global node
// numbering. Because jobs never share a node, message matching cannot
// cross jobs and no tag or stream rewriting is needed (multi-tenant
// node sharing is internal/placement's job).
//
// It returns the merged schedule plus each job's node list: nodes[j][r]
// is the fabric node of job j's rank r, the mapping callers need to read
// per-job completion times out of a combined result.
func Compose(policy Placement, jobs ...*Schedule) (*Schedule, [][]int, error) {
	if len(jobs) == 0 {
		return nil, nil, fmt.Errorf("goal: Compose with no jobs")
	}
	sizes := make([]int, len(jobs))
	total := 0
	for j, job := range jobs {
		if job == nil {
			return nil, nil, fmt.Errorf("goal: Compose job %d is nil", j)
		}
		if job.NumRanks() == 0 {
			return nil, nil, fmt.Errorf("goal: Compose job %d has no ranks", j)
		}
		// Peers are rewritten through the job's node table below, so a
		// never-validated schedule with an out-of-range peer must be
		// rejected here rather than panic mid-merge.
		if err := job.Validate(); err != nil {
			return nil, nil, fmt.Errorf("goal: Compose job %d: %w", j, err)
		}
		sizes[j] = job.NumRanks()
		total += sizes[j]
	}
	nodes, err := placeJobs(policy, sizes, total)
	if err != nil {
		return nil, nil, err
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
			dst.Requires.AppendShifted(rp.Requires, 0)
			dst.IRequires.AppendShifted(rp.IRequires, 0)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, nil, err
	}
	return out, nodes, nil
}

// placeJobs assigns each job's ranks to fabric nodes under the policy.
func placeJobs(policy Placement, sizes []int, total int) ([][]int, error) {
	nodes := make([][]int, len(sizes))
	switch policy {
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
		next := 0
		for next < total {
			for j, s := range sizes {
				if len(nodes[j]) < s {
					nodes[j] = append(nodes[j], next)
					next++
				}
			}
		}
	default:
		return nil, fmt.Errorf("goal: unknown placement %v", policy)
	}
	return nodes, nil
}

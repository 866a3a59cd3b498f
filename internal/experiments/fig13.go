package experiments

import (
	"fmt"
	"io"

	"atlahs/internal/goal"
	"atlahs/internal/simtime"
	"atlahs/internal/trace/ncclgoal"
	"atlahs/internal/trace/schedgen"
	"atlahs/internal/workload/hpcapps"
	"atlahs/internal/workload/llm"
	"atlahs/internal/xrand"
	"atlahs/results"
)

// Fig13Row is one allocation strategy's per-job runtimes.
type Fig13Row struct {
	Strategy string
	Llama    simtime.Duration
	LULESH   simtime.Duration
}

// Fig13Result carries both strategies, the cluster shape the report
// prints, and the paper's deltas.
type Fig13Result struct {
	Mode Mode
	// ClusterNodes, LlamaNodes and LULESHNodes describe the shared
	// cluster and its two jobs.
	ClusterNodes int
	LlamaNodes   int
	LULESHNodes  int
	Rows         []Fig13Row
	// Slowdowns of random relative to packed allocation.
	LlamaDeltaPct, LULESHDeltaPct float64
}

// ComputeFig13 reproduces the job-placement case study (paper §6.3, Fig
// 13): an AI job (Llama) and an HPC job (LULESH) share an oversubscribed
// cluster. Packed allocation keeps each job's traffic local to its ToRs;
// random allocation forces it through the oversubscribed core, inflating
// the communication-bound job's runtime far more than the compute-bound
// one. The two allocation strategies fan out across up to `workers`
// goroutines; results are identical for any budget.
func ComputeFig13(mode Mode, workers int) (*Fig13Result, error) {
	dom := AIDomain()
	llamaNodes := 8
	luleshRanks := 8
	scale := 2e-4
	steps := 3
	if mode == Quick {
		llamaNodes = 4
		luleshRanks = 4
		steps = 2
	}

	// job A: Llama data-parallel training (communication heavy)
	rep, err := llm.Generate(llm.Config{
		Model: llm.Llama7B(),
		Par:   llm.Parallelism{TP: 1, PP: 1, DP: llamaNodes * 4, EP: 1, GlobalBatch: llamaNodes * 8},
		Scale: scale,
		Seed:  66,
	})
	if err != nil {
		return nil, err
	}
	llamaSched, err := ncclgoal.Generate(rep, ncclgoal.Config{GPUsPerNode: 4, Channels: 2})
	if err != nil {
		return nil, err
	}
	// job B: LULESH (compute heavy, limited non-overlapped communication)
	tr, err := hpcapps.Generate(hpcapps.Config{App: hpcapps.LULESH, Ranks: luleshRanks, Steps: steps, Seed: 67})
	if err != nil {
		return nil, err
	}
	luleshSched, err := schedgen.Generate(tr, schedgen.Options{})
	if err != nil {
		return nil, err
	}

	cluster := llamaSched.NumRanks() + luleshSched.NumRanks()
	res := &Fig13Result{
		Mode:         mode,
		ClusterNodes: cluster,
		LlamaNodes:   llamaSched.NumRanks(),
		LULESHNodes:  luleshSched.NumRanks(),
	}

	// Packed is the packed placement policy's node sets; random permutes
	// the cluster (seed 99) and cuts it into consecutive blocks of the two
	// job sizes.
	sizes := []int{res.LlamaNodes, res.LULESHNodes}
	packed, err := goal.PlacePacked.Nodes(sizes)
	if err != nil {
		return nil, err
	}
	perm := xrand.New(99).Perm(cluster)
	allocs := []struct {
		name  string
		nodes [][]int
	}{
		{"packed", packed},
		{"random", [][]int{perm[:sizes[0]], perm[sizes[0]:]}},
	}
	// The two allocations are independent packet simulations over the
	// same (read-only) job schedules; they fan out across the worker
	// budget and land at their index.
	rows := make([]Fig13Row, len(allocs))
	err = ForEach(workers, len(allocs), func(i int) error {
		alloc := allocs[i]
		merged, err := goal.Compose(alloc.nodes, llamaSched, luleshSched)
		if err != nil {
			return err
		}
		tp, err := FatTree(cluster, 4, 4, dom)
		if err != nil {
			return err
		}
		run, err := RunPkt(merged, tp, "mprdma", 5, dom)
		if err != nil {
			return fmt.Errorf("fig13 %s: %w", alloc.name, err)
		}
		jobEnd := func(nodes []int) simtime.Duration {
			var max simtime.Time
			for _, nd := range nodes {
				if run.RankEnd[nd] > max {
					max = run.RankEnd[nd]
				}
			}
			return simtime.Duration(max)
		}
		rows[i] = Fig13Row{Strategy: alloc.name, Llama: jobEnd(alloc.nodes[0]), LULESH: jobEnd(alloc.nodes[1])}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	res.LlamaDeltaPct = 100 * (float64(res.Rows[1].Llama) - float64(res.Rows[0].Llama)) / float64(res.Rows[0].Llama)
	res.LULESHDeltaPct = 100 * (float64(res.Rows[1].LULESH) - float64(res.Rows[0].LULESH)) / float64(res.Rows[0].LULESH)
	return res, nil
}

// Render writes the paper-style text report.
func (r *Fig13Result) Render(w io.Writer) {
	header(w, "Fig 13 — job placement: packed vs random allocation")
	fmt.Fprintf(w, "cluster: %d nodes, 4:1 oversubscribed fat tree; jobs: Llama (%d nodes) + LULESH (%d nodes)\n\n",
		r.ClusterNodes, r.LlamaNodes, r.LULESHNodes)
	fmt.Fprintf(w, "%-20s %16s %16s\n", "allocation", "Llama", "LULESH")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-20s %16v %16v\n", row.Strategy, row.Llama, row.LULESH)
	}
	fmt.Fprintf(w, "\nrandom vs packed: Llama %+.0f%%, LULESH %+.0f%%\n", r.LlamaDeltaPct, r.LULESHDeltaPct)
	fmt.Fprintln(w, "paper: random allocation costs Llama +36% and LULESH only +2%.")
}

// Sweep exports the computed rows as a structured record set.
func (r *Fig13Result) Sweep() *results.Sweep {
	s := results.NewSweep("fig13", "Fig 13 — job placement: packed vs random allocation", r.Mode.String())
	s.AddColumn("strategy", results.String, "").
		AddColumn("llama", results.Duration, "ps").
		AddColumn("lulesh", results.Duration, "ps")
	for _, row := range r.Rows {
		s.MustAddRow(row.Strategy, row.Llama, row.LULESH)
	}
	s.SetParam("cluster_nodes", fmt.Sprint(r.ClusterNodes))
	s.SetParam("llama_nodes", fmt.Sprint(r.LlamaNodes))
	s.SetParam("lulesh_nodes", fmt.Sprint(r.LULESHNodes))
	s.SetDerived("llama_delta_pct", r.LlamaDeltaPct)
	s.SetDerived("lulesh_delta_pct", r.LULESHDeltaPct)
	s.Note("paper: random allocation costs Llama +36% and LULESH only +2%.")
	return s
}

package experiments

import (
	"fmt"
	"io"

	"atlahs/internal/goal"
	"atlahs/internal/simtime"
	"atlahs/internal/trace/ncclgoal"
	"atlahs/internal/workload/llm"
	"atlahs/internal/workload/micro"
	"atlahs/results"
)

// Fig1CRow is one workload's Swift-vs-MPRDMA comparison.
type Fig1CRow struct {
	Workload string
	MPRDMA   simtime.Duration
	Swift    simtime.Duration
	// DeltaPct is Swift's slowdown (+) or speedup (-) relative to MPRDMA,
	// the percentage annotated in the paper's Fig 1C.
	DeltaPct float64
}

// Fig1CResult collects all rows.
type Fig1CResult struct {
	Mode Mode
	Rows []Fig1CRow
}

// ComputeFig1C reproduces the motivating experiment (paper Fig 1C): Swift
// and MPRDMA perform comparably on synthetic incast/permutation
// microbenchmarks, but replayed LLM training traffic — DP ring allreduces
// congesting multi-hop paths shared with PP victim flows (Fig 1B) —
// exposes Swift's weakness: its single end-to-end delay measurement cannot
// localise the congested hop. Workload points fan out across up to
// `workers` goroutines; results are identical for any budget.
func ComputeFig1C(mode Mode, workers int) (*Fig1CResult, error) {
	dom := AIDomain()

	hosts := 32
	if mode == Quick {
		hosts = 16
	}
	incast := micro.Incast(hosts, 8, 1<<20)
	perm := micro.Permutation(hosts, 1<<20, 11)

	// the LLM workload: PP victim flows + DP rings on a 2:1 oversubscribed
	// tree with the job's nodes interleaved across ToRs (multi-hop
	// congestion, paper Fig 1B)
	scale := 2e-4
	batch := 32
	if mode == Quick {
		batch = 16
	}
	rep, err := llm.Generate(llm.Config{
		Model: llm.Llama7B(),
		Par:   llm.Parallelism{TP: 1, PP: 4, DP: 4, EP: 1, GlobalBatch: batch},
		Scale: scale,
		Seed:  21,
	})
	if err != nil {
		return nil, err
	}
	llmSched, err := ncclgoal.Generate(rep, ncclgoal.Config{GPUsPerNode: 4, Channels: 2})
	if err != nil {
		return nil, err
	}
	llmSched, err = goal.Compose([][]int{InterleaveMapping(llmSched.NumRanks(), 2)}, llmSched)
	if err != nil {
		return nil, err
	}

	res := &Fig1CResult{Mode: mode}
	cases := []struct {
		name        string
		sched       *goal.Schedule
		hostsPerToR int
		oversub     int
	}{
		{"incast 8:1 (synthetic)", incast, 4, 1},
		{"permutation (synthetic)", perm, 4, 1},
		{"Llama 7B training iteration", llmSched, 2, 2},
	}
	// Each workload's MPRDMA/Swift pair is an independent simulation
	// stack; workloads fan out across the worker budget and rows land at
	// their index.
	rows := make([]Fig1CRow, len(cases))
	err = ForEach(workers, len(cases), func(i int) error {
		c := cases[i]
		nodes := c.sched.NumRanks()
		tp1, err := FatTree(nodes, c.hostsPerToR, c.oversub, dom)
		if err != nil {
			return err
		}
		mp, err := RunPkt(c.sched, tp1, "mprdma", 1, dom)
		if err != nil {
			return fmt.Errorf("fig1c %s mprdma: %w", c.name, err)
		}
		tp2, err := FatTree(nodes, c.hostsPerToR, c.oversub, dom)
		if err != nil {
			return err
		}
		sw, err := RunPkt(c.sched, tp2, "swift", 1, dom)
		if err != nil {
			return fmt.Errorf("fig1c %s swift: %w", c.name, err)
		}
		rows[i] = Fig1CRow{
			Workload: c.name,
			MPRDMA:   mp.Runtime,
			Swift:    sw.Runtime,
			DeltaPct: 100 * (float64(sw.Runtime) - float64(mp.Runtime)) / float64(mp.Runtime),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// Render writes the paper-style text report.
func (r *Fig1CResult) Render(w io.Writer) {
	header(w, "Fig 1C — CC algorithms: synthetic microbenchmarks vs LLM training traffic")
	fmt.Fprintf(w, "%-32s %14s %14s %9s\n", "workload", "MPRDMA", "Swift", "Swift Δ%")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-32s %14v %14v %+8.1f%%\n", row.Workload, row.MPRDMA, row.Swift, row.DeltaPct)
	}
	fmt.Fprintln(w, "\npaper: Swift ≈ MPRDMA on synthetic benchmarks; ~4% slower on the real AI trace.")
}

// Sweep exports the computed rows as a structured record set.
func (r *Fig1CResult) Sweep() *results.Sweep {
	s := results.NewSweep("fig1c", "Fig 1C — CC algorithms: synthetic microbenchmarks vs LLM training traffic", r.Mode.String())
	s.AddColumn("workload", results.String, "").
		AddColumn("mprdma", results.Duration, "ps").
		AddColumn("swift", results.Duration, "ps").
		AddColumn("swift_delta_pct", results.Float, "%")
	for _, row := range r.Rows {
		s.MustAddRow(row.Workload, row.MPRDMA, row.Swift, row.DeltaPct)
	}
	s.Note("paper: Swift ≈ MPRDMA on synthetic benchmarks; ~4% slower on the real AI trace.")
	return s
}

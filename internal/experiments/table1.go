package experiments

import (
	"fmt"
	"io"

	"atlahs/internal/goal"
	"atlahs/internal/trace/ncclgoal"
	"atlahs/internal/trace/schedgen"
	"atlahs/internal/workload/hpcapps"
	"atlahs/internal/workload/llm"
	"atlahs/results"
)

// Table1Row reports one application/configuration's raw-trace and GOAL
// sizes (paper Table 1, in MiB).
type Table1Row struct {
	App        string
	Config     string
	TraceBytes int64
	GOALBytes  int64
}

// Table1Result collects all rows.
type Table1Result struct {
	Mode Mode
	Rows []Table1Row
}

// countingWriter measures serialised size without buffering the bytes.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// ComputeTable1 reproduces the released-trace summary (paper Table 1): for
// every application and configuration, the size of the raw trace artifact
// (nsys report / MPI trace) versus the generated binary GOAL file. Byte
// counts are scaled (recorded per row in the config column); the
// comparison target is the relative size of GOAL versus the raw traces.
// Configuration points fan out across up to `workers` goroutines; rows
// land at their index, so results are identical for any budget.
func ComputeTable1(mode Mode, workers int) (*Table1Result, error) {
	res := &Table1Result{Mode: mode}

	type aiCase struct {
		model llm.Model
		par   llm.Parallelism
		scale float64
		gpn   int
		label string
	}
	aiCases := []aiCase{
		{llm.DLRMModel(), llm.Parallelism{TP: 1, PP: 1, DP: 4, EP: 1, GlobalBatch: 8}, 1e-2, 1, "4 GPUs 4 Nodes"},
		{llm.Llama7B(), llm.Parallelism{TP: 1, PP: 1, DP: 16, EP: 1, GlobalBatch: 32}, 1e-3, 4, "16 GPUs 4 Nodes"},
	}
	if mode == Full {
		aiCases = append(aiCases,
			aiCase{llm.Llama7B(), llm.Parallelism{TP: 1, PP: 1, DP: 128, EP: 1, GlobalBatch: 128}, 1e-3, 4, "128 GPUs 32 Nodes"},
			aiCase{llm.Llama70B(), llm.Parallelism{TP: 1, PP: 8, DP: 32, EP: 1, GlobalBatch: 32}, 1e-3, 4, "256 GPUs 64 Nodes"},
			aiCase{llm.Mistral8x7B(), llm.Parallelism{TP: 1, PP: 8, DP: 8, EP: 1, GlobalBatch: 32}, 1e-3, 4, "64 GPUs 16 Nodes"},
			aiCase{llm.MoE8x13B(), llm.Parallelism{TP: 4, PP: 4, DP: 8, EP: 4, GlobalBatch: 128}, 1e-4, 4, "128 GPUs 32 Nodes"},
			aiCase{llm.MoE8x70B(), llm.Parallelism{TP: 4, PP: 8, DP: 8, EP: 8, GlobalBatch: 128}, 1e-4, 4, "256 GPUs 64 Nodes"},
		)
	}
	type hpcCase struct {
		app   hpcapps.App
		ranks int
		nodes int
	}
	hpcCases := []hpcCase{
		{hpcapps.CloverLeaf, 128, 8},
		{hpcapps.HPCG, 128, 8},
	}
	if mode == Full {
		hpcCases = append(hpcCases, []hpcCase{
			{hpcapps.HPCG, 512, 32}, {hpcapps.HPCG, 1024, 64},
			{hpcapps.LULESH, 128, 8}, {hpcapps.LULESH, 432, 27}, {hpcapps.LULESH, 1024, 64},
			{hpcapps.LAMMPS, 128, 8}, {hpcapps.LAMMPS, 512, 32}, {hpcapps.LAMMPS, 1024, 64},
			{hpcapps.ICON, 128, 8}, {hpcapps.ICON, 512, 32}, {hpcapps.ICON, 1024, 64},
			{hpcapps.OpenMX, 128, 8}, {hpcapps.OpenMX, 512, 32},
		}...)
	}
	steps := 10
	if mode == Quick {
		steps = 2
	}

	// AI and HPC configurations share one index space so every row fans
	// out across the worker budget; rows land at their index, keeping the
	// table's order identical for any budget.
	rows := make([]Table1Row, len(aiCases)+len(hpcCases))
	err := ForEach(workers, len(rows), func(i int) error {
		if i < len(aiCases) {
			c := aiCases[i]
			rep, err := llm.Generate(llm.Config{Model: c.model, Par: c.par, Scale: c.scale, Seed: 33})
			if err != nil {
				return fmt.Errorf("table1 %s: %w", c.model.Name, err)
			}
			var traceCW countingWriter
			if _, err := rep.WriteTo(&traceCW); err != nil {
				return err
			}
			sch, err := ncclgoal.Generate(rep, ncclgoal.Config{GPUsPerNode: c.gpn})
			if err != nil {
				return fmt.Errorf("table1 %s goal: %w", c.model.Name, err)
			}
			var goalCW countingWriter
			if err := goal.WriteBinary(&goalCW, sch); err != nil {
				return err
			}
			rows[i] = Table1Row{App: c.model.Name, Config: c.label, TraceBytes: traceCW.n, GOALBytes: goalCW.n}
			return nil
		}
		c := hpcCases[i-len(aiCases)]
		tr, err := hpcapps.Generate(hpcapps.Config{App: c.app, Ranks: c.ranks, Steps: steps, Seed: 33})
		if err != nil {
			return fmt.Errorf("table1 %s: %w", c.app, err)
		}
		var traceCW countingWriter
		if _, err := tr.WriteTo(&traceCW); err != nil {
			return err
		}
		sch, err := schedgen.Generate(tr, schedgen.Options{})
		if err != nil {
			return fmt.Errorf("table1 %s goal: %w", c.app, err)
		}
		var goalCW countingWriter
		if err := goal.WriteBinary(&goalCW, sch); err != nil {
			return err
		}
		rows[i] = Table1Row{
			App:        string(c.app),
			Config:     fmt.Sprintf("%d Procs %d Nodes", c.ranks, c.nodes),
			TraceBytes: traceCW.n,
			GOALBytes:  goalCW.n,
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
func (r *Table1Result) Render(w io.Writer) {
	header(w, "Table 1 — trace and GOAL sizes per application/configuration")
	fmt.Fprintf(w, "%-14s %-22s %12s %12s\n", "app", "configuration", "trace (MiB)", "GOAL (MiB)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %-22s %12.3f %12.3f\n", row.App, row.Config, MiB(row.TraceBytes), MiB(row.GOALBytes))
	}
	fmt.Fprintln(w, "\npaper: GOAL files are the same order of magnitude as the raw traces")
	fmt.Fprintln(w, "(sometimes larger after collective expansion, e.g. Llama 128-GPU 1652->4819 MiB).")
}

// Sweep exports the computed rows as a structured record set.
func (r *Table1Result) Sweep() *results.Sweep {
	s := results.NewSweep("table1", "Table 1 — trace and GOAL sizes per application/configuration", r.Mode.String())
	s.AddColumn("app", results.String, "").
		AddColumn("config", results.String, "").
		AddColumn("trace_bytes", results.Int, "B").
		AddColumn("goal_bytes", results.Int, "B")
	for _, row := range r.Rows {
		s.MustAddRow(row.App, row.Config, row.TraceBytes, row.GOALBytes)
	}
	s.Note("paper: GOAL files are the same order of magnitude as the raw traces",
		"(sometimes larger after collective expansion, e.g. Llama 128-GPU 1652->4819 MiB).")
	return s
}

package experiments

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"atlahs/internal/astra"
	"atlahs/internal/goal"
	"atlahs/internal/simtime"
	"atlahs/internal/trace/chakra"
	"atlahs/internal/trace/ncclgoal"
	"atlahs/internal/workload/llm"
	"atlahs/results"
)

// fig8Case is one AI validation configuration (paper Fig 8's x-axis).
type fig8Case struct {
	Label string
	Model llm.Model
	Par   llm.Parallelism
	Scale float64
	GPN   int // GPUs per node
}

// fig8Cases returns the paper's six configurations; Quick mode shrinks
// the large ones to keep packet-level simulation test-sized.
func fig8Cases(mode Mode) []fig8Case {
	if mode == Quick {
		return []fig8Case{
			{"Llama 7B TP1 PP1 DP8", llm.Llama7B(), llm.Parallelism{TP: 1, PP: 1, DP: 8, EP: 1, GlobalBatch: 16}, 5e-5, 4},
			{"Llama 70B TP1 PP4 DP2", llm.Llama70B(), llm.Parallelism{TP: 1, PP: 4, DP: 2, EP: 1, GlobalBatch: 8}, 2e-5, 4},
			{"MoE 8x13B TP2 PP2 DP4 EP2", llm.MoE8x13B(), llm.Parallelism{TP: 2, PP: 2, DP: 4, EP: 2, GlobalBatch: 16}, 2e-5, 4},
		}
	}
	return []fig8Case{
		{"Llama 7B 16 GPUs TP1 PP1 DP16", llm.Llama7B(), llm.Parallelism{TP: 1, PP: 1, DP: 16, EP: 1, GlobalBatch: 32}, 2e-4, 4},
		{"Llama 7B 128 GPUs TP1 PP1 DP128", llm.Llama7B(), llm.Parallelism{TP: 1, PP: 1, DP: 128, EP: 1, GlobalBatch: 128}, 5e-5, 4},
		{"Llama 70B 256 GPUs TP1 PP8 DP32", llm.Llama70B(), llm.Parallelism{TP: 1, PP: 8, DP: 32, EP: 1, GlobalBatch: 32}, 2e-5, 4},
		{"Mistral 8x7B 64 GPUs TP1 PP8 DP8", llm.Mistral8x7B(), llm.Parallelism{TP: 1, PP: 8, DP: 8, EP: 1, GlobalBatch: 32}, 5e-5, 4},
		{"MoE 8x13B 128 GPUs TP4 PP4 DP8 EP4", llm.MoE8x13B(), llm.Parallelism{TP: 4, PP: 4, DP: 8, EP: 4, GlobalBatch: 128}, 2e-5, 4},
		{"MoE 8x70B 256 GPUs TP4 PP8 DP8 EP8", llm.MoE8x70B(), llm.Parallelism{TP: 4, PP: 8, DP: 8, EP: 8, GlobalBatch: 128}, 1e-5, 4},
	}
}

// Fig8Row is one configuration's validation outcome.
type Fig8Row struct {
	Label       string
	Measured    simtime.Duration // fluid testbed ("measured")
	ComputePct  float64          // non-overlapped computation share
	LGS         simtime.Duration
	LGSErrPct   float64
	Pkt         simtime.Duration
	PktErrPct   float64
	Astra       simtime.Duration // 0 when the baseline failed
	AstraErrPct float64
	AstraErr    string // failure reason when the baseline cannot run

	LGSWall, PktWall, AstraWall time.Duration
}

// Fig8Result collects all configurations.
type Fig8Result struct {
	Mode Mode
	Rows []Fig8Row
}

// ComputeFig8 reproduces the AI validation (paper Fig 8): measured
// iteration time versus ATLAHS LGS, ATLAHS packet-level and the
// AstraSim-lite baseline across six LLM configurations, plus the
// simulation wall-clock comparison reported in §5.2 (LGS 13.9x/2.7x faster
// than AstraSim). Configuration points fan out across up to `workers`
// goroutines; simulated results are identical for any budget.
func ComputeFig8(mode Mode, workers int) (*Fig8Result, error) {
	res := &Fig8Result{Mode: mode}
	dom := AIDomain()
	cases := fig8Cases(mode)
	rows := make([]Fig8Row, len(cases))
	// Every configuration is an isolated simulation stack (own engines,
	// seeds, topologies), so the sweep fans out across the worker budget;
	// rows land at their index and present in order.
	err := ForEach(workers, len(cases), func(i int) error {
		c := cases[i]
		rep, err := llm.Generate(llm.Config{Model: c.Model, Par: c.Par, Scale: c.Scale, Seed: uint64(40 + i)})
		if err != nil {
			return fmt.Errorf("fig8 %s: %w", c.Label, err)
		}
		sch, err := ncclgoal.Generate(rep, ncclgoal.Config{GPUsPerNode: c.GPN})
		if err != nil {
			return fmt.Errorf("fig8 %s goal: %w", c.Label, err)
		}
		nodes := sch.NumRanks()
		tpM, err := FatTree(nodes, 4, 1, dom)
		if err != nil {
			return err
		}
		measured, _, err := RunFluid(sch, tpM, uint64(70+i), dom)
		if err != nil {
			return fmt.Errorf("fig8 %s measured: %w", c.Label, err)
		}
		row := Fig8Row{Label: c.Label, Measured: measured}
		row.ComputePct = 100 * float64(ComputeOnlyRuntime(sch)) / float64(measured)

		// wall-clock comparisons time the full simulator workflow: load the
		// serialised trace, then simulate (the paper measures whole runs)
		var goalBin bytes.Buffer
		if err := goal.WriteBinary(&goalBin, sch); err != nil {
			return err
		}
		lgsStart := time.Now()
		schLoaded, err := goal.ReadBinary(bytes.NewReader(goalBin.Bytes()))
		if err != nil {
			return err
		}
		lgs, _, err := RunLGS(schLoaded, dom.LGS)
		if err != nil {
			return fmt.Errorf("fig8 %s lgs: %w", c.Label, err)
		}
		row.LGS, row.LGSWall = lgs, time.Since(lgsStart)
		row.LGSErrPct = PercentErr(lgs, measured)

		tpP, err := FatTree(nodes, 4, 1, dom)
		if err != nil {
			return err
		}
		pkt, err := RunPkt(sch, tpP, "mprdma", uint64(90+i), dom)
		if err != nil {
			return fmt.Errorf("fig8 %s pkt: %w", c.Label, err)
		}
		row.Pkt, row.PktWall = pkt.Runtime, pkt.Wall
		row.PktErrPct = PercentErr(pkt.Runtime, measured)

		// AstraSim-lite baseline on the Chakra rendering (load + simulate)
		ctr, err := llm.GenerateChakra(llm.Config{Model: c.Model, Par: c.Par, Scale: c.Scale, Seed: uint64(40 + i)})
		if err != nil {
			return err
		}
		var chakraBin bytes.Buffer
		if _, err := ctr.WriteTo(&chakraBin); err != nil {
			return err
		}
		aStart := time.Now()
		ctrLoaded, aerr := chakra.ParseBytes(chakraBin.Bytes())
		var ares *astra.Result
		if aerr == nil {
			ares, aerr = astra.Simulate(ctrLoaded)
		}
		row.AstraWall = time.Since(aStart)
		if aerr != nil {
			row.AstraErr = aerr.Error()
		} else {
			row.Astra = ares.Runtime
			row.AstraErrPct = PercentErr(ares.Runtime, measured)
		}

		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// Render writes the paper-style text report: the validation table and the
// §5.2 wall-clock comparison.
func (r *Fig8Result) Render(w io.Writer) {
	header(w, "Fig 8 — AI validation: measured vs predicted training-iteration time")
	fmt.Fprintln(w, `"measured" is the fluid-flow testbed (experiments.RunFluid), standing in for the paper's clusters.`)
	fmt.Fprintf(w, "%-38s %12s %7s %22s %22s %s\n",
		"configuration", "measured", "comp%", "LGS (err%)", "pkt (err%)", "astra (err%)")
	for _, row := range r.Rows {
		astraCol := "FAILED (unsupported parallelism)"
		if row.AstraErr == "" {
			astraCol = fmt.Sprintf("%v (%+.1f%%)", row.Astra, row.AstraErrPct)
		}
		fmt.Fprintf(w, "%-38s %12v %6.1f%% %14v (%+.1f%%) %14v (%+.1f%%) %s\n",
			row.Label, row.Measured, row.ComputePct,
			row.LGS, row.LGSErrPct, row.Pkt, row.PktErrPct, astraCol)
	}

	fmt.Fprintln(w, "\nsimulation wall-clock (paper §5.2: LGS 13.9x/2.7x faster than AstraSim):")
	fmt.Fprintf(w, "%-38s %12s %12s %12s\n", "configuration", "LGS", "pkt", "astra")
	for _, row := range r.Rows {
		astraWall := "n/a (failed)"
		if row.AstraErr == "" {
			astraWall = row.AstraWall.String()
		}
		fmt.Fprintf(w, "%-38s %12v %12v %12s\n", row.Label, row.LGSWall, row.PktWall, astraWall)
	}
	fmt.Fprintln(w, "\npaper: ATLAHS errors stay within ~5%; AstraSim runs only the two pure-DP")
	fmt.Fprintln(w, "configs (errors 27% / 125.5%) and fails on PP/TP/EP parallelism.")
}

// Sweep exports the computed rows as a structured record set. The wall
// columns are measurements of the generating host (nanoseconds of real
// time), not simulated results; astra columns are zero when the baseline
// failed, with the reason in astra_err.
func (r *Fig8Result) Sweep() *results.Sweep {
	s := results.NewSweep("fig8", "Fig 8 — AI validation: measured vs predicted training-iteration time", r.Mode.String())
	s.AddColumn("configuration", results.String, "").
		AddColumn("measured", results.Duration, "ps").
		AddColumn("compute_pct", results.Float, "%").
		AddColumn("lgs", results.Duration, "ps").
		AddColumn("lgs_err_pct", results.Float, "%").
		AddColumn("pkt", results.Duration, "ps").
		AddColumn("pkt_err_pct", results.Float, "%").
		AddColumn("astra", results.Duration, "ps").
		AddColumn("astra_err_pct", results.Float, "%").
		AddColumn("astra_err", results.String, "").
		AddColumn("lgs_wall_ns", results.Int, "ns").
		AddColumn("pkt_wall_ns", results.Int, "ns").
		AddColumn("astra_wall_ns", results.Int, "ns")
	for _, row := range r.Rows {
		s.MustAddRow(row.Label, row.Measured, row.ComputePct,
			row.LGS, row.LGSErrPct, row.Pkt, row.PktErrPct,
			row.Astra, row.AstraErrPct, oneline(row.AstraErr),
			row.LGSWall.Nanoseconds(), row.PktWall.Nanoseconds(), row.AstraWall.Nanoseconds())
	}
	s.Note("paper: ATLAHS errors stay within ~5%; AstraSim runs only the two pure-DP",
		"configs (errors 27% / 125.5%) and fails on PP/TP/EP parallelism.")
	return s
}

package experiments

import (
	"fmt"
	"io"

	"atlahs/internal/backend"
	"atlahs/internal/simtime"
	"atlahs/internal/trace/schedgen"
	"atlahs/internal/workload/hpcapps"
	"atlahs/results"
)

// Fig10Row is one HPC app/configuration validation outcome.
type Fig10Row struct {
	App        string
	Procs      int
	Nodes      int
	Measured   simtime.Duration
	ComputePct float64
	LGS        simtime.Duration
	LGSErrPct  float64
	Pkt        simtime.Duration
	PktErrPct  float64
}

// Fig10Result collects all configurations.
type Fig10Result struct {
	Mode Mode
	Rows []Fig10Row
	// MaxAbsErrPct is the worst |error| across all rows and backends —
	// the paper's claim is that it stays below ~5%.
	MaxAbsErrPct float64
}

// fig10Cases returns the paper's 15 (app, procs, nodes) pairs; Quick mode
// keeps one small configuration per app.
func fig10Cases(mode Mode) []struct {
	app          hpcapps.App
	procs, nodes int
} {
	type c = struct {
		app          hpcapps.App
		procs, nodes int
	}
	if mode == Quick {
		return []c{
			{hpcapps.CloverLeaf, 16, 4}, {hpcapps.HPCG, 16, 4},
			{hpcapps.LULESH, 16, 4}, {hpcapps.LAMMPS, 16, 4},
			{hpcapps.ICON, 16, 4}, {hpcapps.OpenMX, 16, 4},
		}
	}
	return []c{
		{hpcapps.CloverLeaf, 128, 8},
		{hpcapps.HPCG, 128, 8}, {hpcapps.HPCG, 512, 32}, {hpcapps.HPCG, 1024, 64},
		{hpcapps.LULESH, 128, 8}, {hpcapps.LULESH, 432, 27}, {hpcapps.LULESH, 1024, 64},
		{hpcapps.LAMMPS, 128, 8}, {hpcapps.LAMMPS, 512, 32}, {hpcapps.LAMMPS, 1024, 64},
		{hpcapps.ICON, 128, 8}, {hpcapps.ICON, 512, 32}, {hpcapps.ICON, 1024, 64},
		{hpcapps.OpenMX, 128, 8}, {hpcapps.OpenMX, 512, 32},
	}
}

// ComputeFig10 reproduces the HPC validation (paper Fig 10): ATLAHS
// predictions against the measured runtime of six scientific applications
// across weak- and strong-scaling configurations. The paper's testbed is a
// 188-node CSCS cluster; here the fluid emulator plays that role (see
// RunFluid), with each MPI process on its own simulated endpoint.
// Configuration points fan out across up to `workers` goroutines; rows
// land at their index, so results are identical for any budget.
func ComputeFig10(mode Mode, workers int) (*Fig10Result, error) {
	res := &Fig10Result{Mode: mode}
	dom := HPCDomain()
	steps := 5
	if mode == Quick {
		steps = 2
	}
	cases := fig10Cases(mode)
	rows := make([]Fig10Row, len(cases))
	err := ForEach(workers, len(cases), func(i int) error {
		c := cases[i]
		tr, err := hpcapps.Generate(hpcapps.Config{
			App: c.app, Ranks: c.procs, Steps: steps, Seed: uint64(100 + i), ScaleBytes: 0.5,
		})
		if err != nil {
			return fmt.Errorf("fig10 %s: %w", c.app, err)
		}
		sch, err := schedgen.Generate(tr, schedgen.Options{})
		if err != nil {
			return fmt.Errorf("fig10 %s schedgen: %w", c.app, err)
		}
		tpM, err := FatTree(c.procs, 16, 1, dom)
		if err != nil {
			return err
		}
		measured, _, err := RunFluid(sch, tpM, uint64(200+i), dom)
		if err != nil {
			return fmt.Errorf("fig10 %s measured: %w", c.app, err)
		}
		row := Fig10Row{App: string(c.app), Procs: c.procs, Nodes: c.nodes, Measured: measured}
		row.ComputePct = 100 * float64(ComputeOnlyRuntime(sch)) / float64(measured)

		lgs, _, err := RunLGS(sch, backend.HPCParams())
		if err != nil {
			return fmt.Errorf("fig10 %s lgs: %w", c.app, err)
		}
		row.LGS = lgs
		row.LGSErrPct = PercentErr(lgs, measured)

		tpP, err := FatTree(c.procs, 16, 1, dom)
		if err != nil {
			return err
		}
		pkt, err := RunPkt(sch, tpP, "mprdma", uint64(300+i), dom)
		if err != nil {
			return fmt.Errorf("fig10 %s pkt: %w", c.app, err)
		}
		row.Pkt = pkt.Runtime
		row.PktErrPct = PercentErr(pkt.Runtime, measured)
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	for _, row := range rows {
		for _, e := range []float64{row.LGSErrPct, row.PktErrPct} {
			if a := abs(e); a > res.MaxAbsErrPct {
				res.MaxAbsErrPct = a
			}
		}
	}
	return res, nil
}

// Render writes the paper-style text report.
func (r *Fig10Result) Render(w io.Writer) {
	header(w, "Fig 10 — HPC validation: measured vs predicted application runtime")
	fmt.Fprintf(w, "%-12s %-12s %12s %7s %22s %22s\n",
		"app", "procs/nodes", "measured", "comp%", "LGS (err%)", "pkt (err%)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %5d/%-6d %12v %6.1f%% %14v (%+.1f%%) %14v (%+.1f%%)\n",
			row.App, row.Procs, row.Nodes, row.Measured, row.ComputePct,
			row.LGS, row.LGSErrPct, row.Pkt, row.PktErrPct)
	}
	fmt.Fprintf(w, "\nworst |error| across rows and backends: %.1f%%\n", r.MaxAbsErrPct)
	fmt.Fprintln(w, "paper: all errors below ~5% for both ATLAHS backends.")
}

// Sweep exports the computed rows as a structured record set.
func (r *Fig10Result) Sweep() *results.Sweep {
	s := results.NewSweep("fig10", "Fig 10 — HPC validation: measured vs predicted application runtime", r.Mode.String())
	s.AddColumn("app", results.String, "").
		AddColumn("procs", results.Int, "").
		AddColumn("nodes", results.Int, "").
		AddColumn("measured", results.Duration, "ps").
		AddColumn("compute_pct", results.Float, "%").
		AddColumn("lgs", results.Duration, "ps").
		AddColumn("lgs_err_pct", results.Float, "%").
		AddColumn("pkt", results.Duration, "ps").
		AddColumn("pkt_err_pct", results.Float, "%")
	for _, row := range r.Rows {
		s.MustAddRow(row.App, row.Procs, row.Nodes, row.Measured, row.ComputePct,
			row.LGS, row.LGSErrPct, row.Pkt, row.PktErrPct)
	}
	s.SetDerived("max_abs_err_pct", r.MaxAbsErrPct)
	s.Note("paper: all errors below ~5% for both ATLAHS backends.")
	return s
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

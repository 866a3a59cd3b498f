package experiments

import (
	"fmt"
	"io"

	"atlahs/internal/storage/directdrive"
	"atlahs/internal/workload/oltp"
	"atlahs/results"
)

// Fig11Cell is the MCT distribution of one (topology, CC) combination.
type Fig11Cell struct {
	Topology string
	CC       string
	MeanUs   float64
	P99Us    float64
	MaxUs    float64
	Msgs     int
}

// Fig11Result collects the four cells plus the paper's degradation deltas
// and the workload/system description the report prints.
type Fig11Result struct {
	Mode Mode
	// WorkloadOps, WritePct and MeanBytes describe the generated SPC
	// trace; Layout describes the Direct Drive system it maps onto.
	WorkloadOps int
	WritePct    float64
	MeanBytes   float64
	Layout      string
	Cells       []Fig11Cell
	// NDP degradation on the oversubscribed fabric relative to MPRDMA
	// (the paper reports +14% mean, +35% p99, +77% max at 8:1).
	NDPMeanDeltaPct, NDPP99DeltaPct, NDPMaxDeltaPct float64
}

// fig11HostsPerToR and fig11Oversub shape Fig 11's fabric. The paper's
// 8:1 needs 8 hosts per ToR over one core switch; this fabric has 4 hosts
// per ToR, so its oversubscribed point is 4:1, the most a 4-host ToR
// allows.
const (
	fig11HostsPerToR = 4
	fig11Oversub     = 4
)

// ComputeFig11 reproduces the storage case study (paper §6.1, Fig 11): 5k
// operations drawn from the Financial distribution replayed through the
// Direct Drive model, comparing MPRDMA (sender-based) and NDP
// (receiver-driven) message completion times on a fully provisioned versus
// an oversubscribed fat tree. Receiver-driven control cannot see
// in-network congestion away from the receiver, so NDP's tail degrades
// under oversubscription. The four (topology, CC) cells fan out across up
// to `workers` goroutines; results are identical for any budget.
func ComputeFig11(mode Mode, workers int) (*Fig11Result, error) {
	ops := 5000
	hosts := 8
	if mode == Quick {
		ops = 400
		hosts = 4
	}
	tr := oltp.GenerateFinancial(oltp.FinancialConfig{Ops: ops, Seed: 77})
	st := tr.ComputeStats()

	sch, layout, err := directdrive.Generate(tr, directdrive.Config{Hosts: hosts, CCS: 2, BSS: 8})
	if err != nil {
		return nil, err
	}

	res := &Fig11Result{
		Mode:        mode,
		WorkloadOps: st.Ops,
		WritePct:    100 * st.WriteRatio,
		MeanBytes:   st.MeanBytes,
		Layout:      fmt.Sprintf("%v", layout),
	}
	dom := AIDomain()
	over := fmt.Sprintf("%d:1 oversubscription", fig11Oversub)
	// The four (topology, CC) cells are independent packet simulations, so
	// they fan out across the worker budget; cells land at their index.
	points := []struct {
		label   string
		oversub int
		cc      string
		seed    uint64
	}{
		{"no oversubscription", 1, "mprdma", 1},
		{"no oversubscription", 1, "ndp", 1},
		{over, fig11Oversub, "mprdma", 1},
		{over, fig11Oversub, "ndp", 1},
	}
	cells := make([]Fig11Cell, len(points))
	err = ForEach(workers, len(points), func(i int) error {
		p := points[i]
		tp, err := FatTree(sch.NumRanks(), fig11HostsPerToR, p.oversub, dom)
		if err != nil {
			return err
		}
		run, err := RunPkt(sch, tp, p.cc, p.seed, dom)
		if err != nil {
			return fmt.Errorf("fig11 %s/%s: %w", p.label, p.cc, err)
		}
		cells[i] = Fig11Cell{
			Topology: p.label,
			CC:       p.cc,
			MeanUs:   run.MCT.Mean(),
			P99Us:    run.MCT.Percentile(99),
			MaxUs:    run.MCT.Max(),
			Msgs:     run.MCT.N(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Cells = cells
	mp8, ndp8 := &cells[2], &cells[3]
	res.NDPMeanDeltaPct = 100 * (ndp8.MeanUs - mp8.MeanUs) / mp8.MeanUs
	res.NDPP99DeltaPct = 100 * (ndp8.P99Us - mp8.P99Us) / mp8.P99Us
	res.NDPMaxDeltaPct = 100 * (ndp8.MaxUs - mp8.MaxUs) / mp8.MaxUs
	return res, nil
}

// Render writes the paper-style text report.
func (r *Fig11Result) Render(w io.Writer) {
	header(w, "Fig 11 — storage MCT under different CC algorithms and topologies")
	fmt.Fprintf(w, "workload: %d Financial-distribution ops, %.0f%% writes, mean %.0f B\n",
		r.WorkloadOps, r.WritePct, r.MeanBytes)
	fmt.Fprintf(w, "storage system: %s\n\n", r.Layout)
	fmt.Fprintf(w, "%-22s %-8s %10s %10s %10s %8s\n", "topology", "cc", "mean (µs)", "p99 (µs)", "max (µs)", "msgs")
	for _, cell := range r.Cells {
		fmt.Fprintf(w, "%-22s %-8s %10.2f %10.2f %10.2f %8d\n",
			cell.Topology, cell.CC, cell.MeanUs, cell.P99Us, cell.MaxUs, cell.Msgs)
	}
	fmt.Fprintf(w, "\nNDP vs MPRDMA at %d:1: mean %+.0f%%, p99 %+.0f%%, max %+.0f%%\n",
		fig11Oversub, r.NDPMeanDeltaPct, r.NDPP99DeltaPct, r.NDPMaxDeltaPct)
	fmt.Fprintln(w, "paper: comparable when fully provisioned; at 8:1 NDP degrades by +14% mean, +35% p99, +77% max.")
}

// Sweep exports the computed cells as a structured record set.
func (r *Fig11Result) Sweep() *results.Sweep {
	s := results.NewSweep("fig11", "Fig 11 — storage MCT under different CC algorithms and topologies", r.Mode.String())
	s.AddColumn("topology", results.String, "").
		AddColumn("cc", results.String, "").
		AddColumn("mean_us", results.Float, "us").
		AddColumn("p99_us", results.Float, "us").
		AddColumn("max_us", results.Float, "us").
		AddColumn("msgs", results.Int, "")
	for _, cell := range r.Cells {
		s.MustAddRow(cell.Topology, cell.CC, cell.MeanUs, cell.P99Us, cell.MaxUs, cell.Msgs)
	}
	s.SetParam("workload_ops", fmt.Sprint(r.WorkloadOps))
	s.SetParam("write_pct", fmt.Sprintf("%.0f", r.WritePct))
	s.SetParam("mean_bytes", fmt.Sprintf("%.0f", r.MeanBytes))
	s.SetParam("layout", r.Layout)
	s.SetDerived("ndp_mean_delta_pct", r.NDPMeanDeltaPct)
	s.SetDerived("ndp_p99_delta_pct", r.NDPP99DeltaPct)
	s.SetDerived("ndp_max_delta_pct", r.NDPMaxDeltaPct)
	s.Note("paper: comparable when fully provisioned; at 8:1 NDP degrades by +14% mean, +35% p99, +77% max.")
	return s
}

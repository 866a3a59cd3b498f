package experiments

import (
	"fmt"
	"io"

	"atlahs/internal/goal"
	"atlahs/internal/trace/ncclgoal"
	"atlahs/internal/workload/llm"
	"atlahs/results"
)

// Fig9Row compares GOAL and Chakra trace sizes for one configuration.
type Fig9Row struct {
	Label       string
	GOALBytes   int64
	ChakraBytes int64
	Ratio       float64 // Chakra / GOAL (the paper's green labels, inverted)
}

// Fig9Result collects all configurations.
type Fig9Result struct {
	Mode Mode
	Rows []Fig9Row
}

// ComputeFig9 reproduces the trace-size comparison (paper Fig 9): the
// binary GOAL files ATLAHS simulates from are consistently smaller than
// the Chakra execution traces AstraSim consumes (1.8x-10.6x in the paper).
// Configuration points fan out across up to `workers` goroutines; rows
// land at their index, so results are identical for any budget.
func ComputeFig9(mode Mode, workers int) (*Fig9Result, error) {
	res := &Fig9Result{Mode: mode}
	cases := fig8Cases(mode)
	rows := make([]Fig9Row, len(cases))
	err := ForEach(workers, len(cases), func(i int) error {
		c := cases[i]
		cfg := llm.Config{Model: c.Model, Par: c.Par, Scale: c.Scale, Seed: uint64(40 + i)}
		rep, err := llm.Generate(cfg)
		if err != nil {
			return err
		}
		sch, err := ncclgoal.Generate(rep, ncclgoal.Config{GPUsPerNode: c.GPN})
		if err != nil {
			return err
		}
		var goalCW countingWriter
		if err := goal.WriteBinary(&goalCW, sch); err != nil {
			return err
		}
		ctr, err := llm.GenerateChakra(cfg)
		if err != nil {
			return err
		}
		var chakraCW countingWriter
		if _, err := ctr.WriteTo(&chakraCW); err != nil {
			return err
		}
		rows[i] = Fig9Row{
			Label:       c.Label,
			GOALBytes:   goalCW.n,
			ChakraBytes: chakraCW.n,
			Ratio:       float64(chakraCW.n) / float64(goalCW.n),
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
func (r *Fig9Result) Render(w io.Writer) {
	header(w, "Fig 9 — trace size: GOAL vs Chakra")
	fmt.Fprintf(w, "%-38s %12s %12s %8s\n", "configuration", "GOAL (MiB)", "Chakra (MiB)", "ratio")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-38s %12.3f %12.3f %7.2fx\n",
			row.Label, MiB(row.GOALBytes), MiB(row.ChakraBytes), row.Ratio)
	}
	fmt.Fprintln(w, "\npaper: Chakra traces are 1.8x-10.6x larger than the GOAL equivalents.")
}

// Sweep exports the computed rows as a structured record set.
func (r *Fig9Result) Sweep() *results.Sweep {
	s := results.NewSweep("fig9", "Fig 9 — trace size: GOAL vs Chakra", r.Mode.String())
	s.AddColumn("configuration", results.String, "").
		AddColumn("goal_bytes", results.Int, "B").
		AddColumn("chakra_bytes", results.Int, "B").
		AddColumn("ratio", results.Float, "")
	for _, row := range r.Rows {
		s.MustAddRow(row.Label, row.GOALBytes, row.ChakraBytes, row.Ratio)
	}
	s.Note("paper: Chakra traces are 1.8x-10.6x larger than the GOAL equivalents.")
	return s
}

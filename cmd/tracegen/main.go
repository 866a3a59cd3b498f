// Command tracegen generates synthetic application traces — stand-ins for
// the paper's instrumented runs of real systems. The emitted artifacts are
// raw traces in the formats the workload frontends ingest, so they can be
// replayed directly: `atlahs -trace trace.nsys` (or through
// sim.Spec{TracePath: ...}).
//
// Usage:
//
//	tracegen -kind llm -model llama7b -tp 1 -pp 1 -dp 8 -batch 16 -out trace.nsys
//	tracegen -kind hpc -app lulesh -ranks 64 -steps 10 -out trace.mpi
//	tracegen -kind storage -ops 5000 -out trace.spc
//
// A flag of another kind (say -ranks with -kind storage) is refused, not
// ignored.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"atlahs/internal/workload/hpcapps"
	"atlahs/internal/workload/llm"
	"atlahs/internal/workload/oltp"
)

func main() {
	kind := flag.String("kind", "", "workload kind: llm, hpc or storage")
	out := flag.String("out", "", "output file")
	seed := flag.Uint64("seed", 1, "generator seed")
	// llm flags
	model := flag.String("model", "llama7b", "llm model: llama7b, llama70b, mistral8x7b, moe8x13b, moe8x70b, dlrm")
	tp := flag.Int("tp", 1, "tensor parallelism")
	pp := flag.Int("pp", 1, "pipeline parallelism")
	dp := flag.Int("dp", 8, "data parallelism")
	ep := flag.Int("ep", 1, "expert parallelism")
	batch := flag.Int("batch", 16, "global batch size")
	scale := flag.Float64("scale", 1e-3, "byte/compute scale factor")
	// hpc flags
	app := flag.String("app", "lulesh", "hpc app: hpcg, lulesh, lammps, icon, openmx, cloverleaf")
	ranks := flag.Int("ranks", 64, "MPI ranks")
	steps := flag.Int("steps", 10, "timesteps")
	// storage flags
	ops := flag.Int("ops", 5000, "storage operations")
	flag.Parse()
	if *kind == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *kind != "llm" && *kind != "hpc" && *kind != "storage" {
		fail(fmt.Errorf("unknown kind %q", *kind))
	}
	flag.Visit(func(f *flag.Flag) {
		if k, ok := kindOf[f.Name]; ok && k != *kind {
			fail(fmt.Errorf("-%s applies to -kind %s, not -kind %s; drop it", f.Name, k, *kind))
		}
	})

	var write func(io.Writer) error
	switch *kind {
	case "llm":
		models := map[string]llm.Model{
			"llama7b": llm.Llama7B(), "llama70b": llm.Llama70B(),
			"mistral8x7b": llm.Mistral8x7B(), "moe8x13b": llm.MoE8x13B(),
			"moe8x70b": llm.MoE8x70B(), "dlrm": llm.DLRMModel(),
		}
		m, ok := models[*model]
		if !ok {
			fail(fmt.Errorf("unknown model %q", *model))
		}
		rep, err := llm.Generate(llm.Config{
			Model: m,
			Par:   llm.Parallelism{TP: *tp, PP: *pp, DP: *dp, EP: *ep, GlobalBatch: *batch},
			Scale: *scale,
			Seed:  *seed,
		})
		if err != nil {
			fail(err)
		}
		write = func(w io.Writer) error { _, err := rep.WriteTo(w); return err }
		defer fmt.Fprintf(os.Stderr, "tracegen: %d GPUs, %d records -> %s\n", rep.NGPUs, len(rep.Records), *out)
	case "hpc":
		tr, err := hpcapps.Generate(hpcapps.Config{
			App: hpcapps.App(*app), Ranks: *ranks, Steps: *steps, Seed: *seed,
		})
		if err != nil {
			fail(err)
		}
		write = func(w io.Writer) error { _, err := tr.WriteTo(w); return err }
		defer fmt.Fprintf(os.Stderr, "tracegen: %d ranks -> %s\n", tr.NumRanks(), *out)
	case "storage":
		tr := oltp.GenerateFinancial(oltp.FinancialConfig{Ops: *ops, Seed: *seed})
		write = func(w io.Writer) error { _, err := tr.WriteTo(w); return err }
		st := tr.ComputeStats()
		defer fmt.Fprintf(os.Stderr, "tracegen: %d ops (%.0f%% writes) -> %s\n", st.Ops, 100*st.WriteRatio, *out)
	}
	if err := emit(*out, write); err != nil {
		fail(err)
	}
}

// kindOf names the one kind that reads each kind-specific flag; -kind,
// -out and -seed apply to every kind.
var kindOf = map[string]string{
	"model": "llm", "tp": "llm", "pp": "llm", "dp": "llm", "ep": "llm", "batch": "llm", "scale": "llm",
	"app": "hpc", "ranks": "hpc", "steps": "hpc",
	"ops": "storage",
}

// emit writes the trace to path, propagating the file's close error: a
// full disk surfaces on Close for buffered writes, and swallowing it
// would report a truncated trace as success.
func emit(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}

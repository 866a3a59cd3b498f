// Command atlahs-synth mines statistical workload models from traces and
// generates synthetic workloads from them at arbitrary scale — the
// toolchain's workload-synthesis entry point over the sim facade.
//
// Usage:
//
//	atlahs-synth mine -in run.nsys [-frontend name] [-comment text] [-out run.model.json]
//	atlahs-synth gen -model run.model.json -ranks 1024 [-seed 1] [-format text|binary] [-out big.goal]
//
// mine ingests a raw application trace (or a GOAL file) through the
// workload-frontend registry — the format is sniffed from the content, or
// named with -frontend — and writes the mined atlahs.model/v1 JSON
// document: message-size and message-count distributions, compute/
// communication structure, traffic classes with destination-offset
// histograms, and the dependency-depth profile of the source schedule.
//
// gen samples a mined model back into a GOAL schedule at the requested
// rank count (default: the model's source rank count). Generation is
// deterministic: the same (model, ranks, seed) always produces a
// bit-identical schedule, so generated workloads are content-addressable
// like any other. The schedule is written as GOAL text by default, or the
// canonical binary encoding with -format binary.
//
// The same model can also be run directly, without materialising a GOAL
// file, by setting the model workload source on a sim.Spec
// (Model/ModelPath; see the sim package docs).
//
// Both subcommands take -cpuprofile FILE and -memprofile FILE, writing
// profiles in the format `go tool pprof` reads — mining a large trace or
// generating at high rank counts can be profiled without a patched build.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"atlahs/internal/profiling"
	"atlahs/results"
	"atlahs/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "mine":
		err = mine(os.Args[2:])
	case "gen":
		err = gen(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "atlahs-synth: unknown command %q (want mine or gen)\n", os.Args[1])
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "atlahs-synth:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  atlahs-synth mine -in trace [-frontend name] [-comment text] [-out model.json]
  atlahs-synth gen -model model.json [-ranks N] [-seed S] [-format text|binary] [-out file]
`)
}

// mine converts the input trace through the frontend registry, mines the
// model, and writes the atlahs.model/v1 document.
func mine(args []string) error {
	fs := newFlagSet("mine")
	in := fs.String("in", "", "application trace or GOAL file to mine (required)")
	frontend := fs.String("frontend", "", "workload frontend (default: auto-detect)")
	comment := fs.String("comment", "", "provenance comment stored in the model")
	out := fs.String("out", "", "output model file (default: stdout)")
	cpuprofile, memprofile := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("mine needs -in trace")
	}
	stop, err := profiling.Start("atlahs-synth", *cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stop()
	b, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	def, err := sim.ResolveFrontend(*frontend, b, *in)
	if err != nil {
		return err
	}
	sched, err := sim.ConvertTrace(b, def.Name, nil)
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	cmt := *comment
	if cmt == "" {
		cmt = fmt.Sprintf("mined from %s (frontend %s)", *in, def.Name)
	}
	model, err := sim.MineModel(sched, cmt)
	if err != nil {
		return err
	}
	return writeTo(*out, func(w io.Writer) error { return results.EncodeModelJSON(w, model) })
}

// gen samples the model into a schedule and writes it as GOAL.
func gen(args []string) error {
	fs := newFlagSet("gen")
	modelPath := fs.String("model", "", "atlahs.model/v1 model file (required)")
	ranks := fs.Int("ranks", 0, "rank count to generate (default: the model's source rank count)")
	seed := fs.Uint64("seed", 1, "generation seed")
	format := fs.String("format", "text", "output encoding: text or binary")
	out := fs.String("out", "", "output GOAL file (default: stdout)")
	cpuprofile, memprofile := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("gen needs -model file")
	}
	stop, err := profiling.Start("atlahs-synth", *cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stop()
	var write func(io.Writer, *sim.Schedule) error
	switch *format {
	case "text":
		write = sim.WriteGOALText
	case "binary":
		write = sim.WriteGOALBinary
	default:
		return fmt.Errorf("unknown -format %q (want text or binary)", *format)
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	model, err := results.DecodeModelJSON(f)
	f.Close()
	if err != nil {
		return err
	}
	sched, err := sim.GenerateFromModel(model, *ranks, *seed)
	if err != nil {
		return err
	}
	return writeTo(*out, func(w io.Writer) error { return write(w, sched) })
}

// newFlagSet builds a subcommand flag set that exits with usage on error.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet("atlahs-synth "+name, flag.ExitOnError)
}

// profileFlags declares the shared profiling flags on a subcommand.
func profileFlags(fs *flag.FlagSet) (cpu, mem *string) {
	return fs.String("cpuprofile", "", "write a CPU profile of this invocation to FILE (go tool pprof format)"),
		fs.String("memprofile", "", "write a heap profile at exit to FILE (go tool pprof format)")
}

// writeTo streams the payload to the named file, or stdout when empty. A
// partial file left by a failed write is removed so callers never see a
// truncated model or schedule.
func writeTo(path string, emit func(io.Writer) error) error {
	if path == "" {
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

// Command schedgen converts application traces into GOAL schedules — the
// trace-to-GOAL stage of the toolchain (paper Fig 2, green path), a thin
// shell over the sim facade's workload-frontend registry.
//
// Usage:
//
//	schedgen -in trace -out sched.bin [-frontend nsys|mpi|spc|chakra|goal]
//	         [-text] [-gpus-per-node 4] [-channels 1] [-hosts 4]
//
// The input format is auto-detected (content sniffing, extension
// fallback) unless -frontend names one. -gpus-per-node/-channels tune the
// nsys conversion, -hosts the spc conversion; other frontends use their
// defaults (the sim library exposes every knob). A conversion flag for a
// frontend other than the resolved one is refused, not ignored.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"atlahs/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "schedgen:", err)
		os.Exit(1)
	}
}

// run converts one trace as args say and reports what it wrote on stderr.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("schedgen", flag.ExitOnError)
	in := fs.String("in", "", "input trace file")
	out := fs.String("out", "", "output GOAL file")
	frontendName := fs.String("frontend", "", "workload frontend: "+strings.Join(sim.Frontends(), ", ")+" (default: auto-detect)")
	text := fs.Bool("text", false, "write textual GOAL instead of binary")
	gpusPerNode := fs.Int("gpus-per-node", 4, "nsys: GPUs grouped per node")
	channels := fs.Int("channels", 1, "nsys: NCCL channels")
	hosts := fs.Int("hosts", 4, "spc: Direct Drive client hosts")
	fs.Parse(args)
	if *in == "" || *out == "" {
		fs.Usage()
		os.Exit(2)
	}

	// The conversion knobs are per-frontend: read the trace once, resolve
	// which frontend owns it, and hand that frontend its own config.
	b, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	def, err := sim.ResolveFrontend(*frontendName, b, *in)
	if err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) {
		if fe, ok := frontendOf[f.Name]; ok && fe != def.Name && err == nil {
			err = fmt.Errorf("-%s tunes the %s frontend, and %s resolved to %s; drop it", f.Name, fe, *in, def.Name)
		}
	})
	if err != nil {
		return err
	}
	s, err := sim.ConvertTrace(b, def.Name, map[string]any{
		"nsys": sim.NsysConfig{GPUsPerNode: *gpusPerNode, Channels: *channels},
		"spc":  sim.SPCConfig{Hosts: *hosts},
	}[def.Name])
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	if err := write(*out, s, *text); err != nil {
		return err
	}
	st := s.ComputeStats()
	fmt.Fprintf(stderr, "schedgen: %s frontend: wrote %d ranks, %d ops to %s\n", def.Name, st.Ranks, st.Ops, *out)
	return nil
}

// frontendOf names the one frontend each conversion flag tunes.
var frontendOf = map[string]string{"gpus-per-node": "nsys", "channels": "nsys", "hosts": "spc"}

// write emits the schedule, propagating the close error (a full disk
// surfaces on Close for buffered writes).
func write(path string, s *sim.Schedule, text bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if text {
		err = sim.WriteGOALText(f, s)
	} else {
		err = sim.WriteGOALBinary(f, s)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-mode quick|full] [-workers N]
//	            [-format text|json|csv] [-out DIR]
//	            [fig1c table1 fig8 fig9 fig10 fig11 fig12 fig13 | all]
//
// The default renders each experiment's text report to stdout, exactly as
// it always has. -format json or -format csv exports the structured
// result sweeps instead (the atlahs.results/v1 schema, see the results
// package), and -out DIR writes one artifact per experiment
// (DIR/<name>.txt|.json|.csv) instead of streaming to stdout — so every
// paper figure regenerates as a machine-readable artifact without parsing
// text. Any failure — a broken experiment, an invalid flag, or an
// unwritable output — exits non-zero.
//
// Independent experiments — and independent configuration points inside
// each experiment — fan out across -workers goroutines (0 = GOMAXPROCS),
// each simulation itself serial. The flag stays where atlahs and atlahsd
// lost theirs because it fans out whole runs, which measured faster than
// sharding one run over the same cores (README, "The parallel simulation
// subsystem").
// Simulated results are identical for any worker count; the wall-clock
// columns some figures print measure this host and are only meaningful at
// -workers 1 (the default).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"atlahs/internal/experiments"
	"atlahs/results"
)

func main() {
	mode := flag.String("mode", "full", "experiment sizing: quick or full")
	workers := flag.Int("workers", 1, "concurrent experiment/sweep goroutines (0 = GOMAXPROCS); >1 distorts the printed wall-clock columns")
	format := flag.String("format", "text", "output format: text, json or csv")
	out := flag.String("out", "", "write one artifact per experiment into this directory instead of stdout")
	flag.Parse()
	m := experiments.Full
	switch *mode {
	case "full":
	case "quick":
		m = experiments.Quick
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q (want quick or full)\n", *mode)
		os.Exit(2)
	}
	switch *format {
	case "text", "json", "csv":
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q (want text, json or csv)\n", *format)
		os.Exit(2)
	}
	names := flag.Args()
	if len(names) == 1 && names[0] == "all" {
		names = nil
	}
	known := map[string]bool{}
	for _, n := range experiments.Names() {
		known[n] = true
	}
	seen := map[string]bool{}
	deduped := names[:0]
	for _, n := range names {
		if !known[n] {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", n)
			os.Exit(2)
		}
		// Drop repeats: they would recompute the experiment and, with
		// -out, overwrite its artifact with an identical one.
		if !seen[n] {
			seen[n] = true
			deduped = append(deduped, n)
		}
	}
	names = deduped
	if err := run(m, *workers, *format, *out, names); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run regenerates the requested experiments in the requested shape. Every
// error path returns — including output-writer failures, which the
// text pipeline surfaces through RunAll — so main can turn it into a
// non-zero exit code.
func run(mode experiments.Mode, workers int, format, out string, names []string) error {
	if out == "" && format == "text" {
		// The classic path: stream each report to stdout as it finishes.
		return experiments.RunAll(os.Stdout, mode, workers, names)
	}

	if len(names) == 0 {
		names = experiments.Names()
	}
	reps, err := experiments.Reports(mode, workers, names)
	if err != nil {
		return err
	}

	if out == "" {
		// Structured formats to stdout: JSON as one array, CSV as
		// blank-line-separated blocks.
		switch format {
		case "json":
			sweeps := make([]*results.Sweep, len(reps))
			for i, rep := range reps {
				sweeps[i] = rep.Sweep()
			}
			return results.EncodeJSONList(os.Stdout, sweeps)
		case "csv":
			for i, rep := range reps {
				if i > 0 {
					if _, err := fmt.Fprintln(os.Stdout); err != nil {
						return err
					}
				}
				if err := results.EncodeCSV(os.Stdout, rep.Sweep()); err != nil {
					return err
				}
			}
		}
		return nil
	}

	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	for i, rep := range reps {
		path := filepath.Join(out, names[i]+"."+ext(format))
		if err := writeArtifact(path, format, rep); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return nil
}

// ext maps a format to its artifact file extension.
func ext(format string) string {
	if format == "text" {
		return "txt"
	}
	return format
}

// writeArtifact renders one report into path in the requested format.
func writeArtifact(path, format string, rep experiments.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	switch format {
	case "text":
		werr = experiments.RenderTo(f, rep)
	case "json":
		werr = results.EncodeJSON(f, rep.Sweep())
	case "csv":
		werr = results.EncodeCSV(f, rep.Sweep())
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

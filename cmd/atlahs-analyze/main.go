// Command atlahs-analyze compares the artifacts the rest of the
// toolchain writes — atlahs.results/v1 sweeps, including the simulation
// service's stored runs — and answers "what changed, and did it get
// worse?".
//
// Usage:
//
//	atlahs-analyze diff [-keys cols] [-threshold F] [-metrics RE]
//	                    [-gate] [-json] [-html FILE] A.json B.json
//
// diff compares two sweep artifacts field by field — B relative to A —
// matching rows on -keys columns (comma-separated) or by position, and
// prints the changed records. It gates the result (one-sided: higher is
// worse; -threshold must be finite and >= 0) and prints one
// "REGRESSION ..." line per flagged metric, naming the regressed record.
//
// -json emits the atlahs.diff/v1 document instead of text; -html FILE
// renders the deterministic HTML report; -gate=false reports without
// gating.
//
// Exit status: 0 clean, 1 when the gate flags a regression, 2 on usage
// or input errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"

	"atlahs/internal/analyze"
	"atlahs/internal/profiling"
	"atlahs/results"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	switch args[0] {
	case "diff":
		return runDiff(args[1:])
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	}
	fmt.Fprintf(os.Stderr, "atlahs-analyze: unknown subcommand %q\n", args[0])
	usage()
	return 2
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  atlahs-analyze diff [flags] A.json B.json   compare two sweep artifacts
run "atlahs-analyze diff -h" for flags.
`)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "atlahs-analyze:", err)
	return 2
}

func runDiff(args []string) int {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	keys := fs.String("keys", "", "comma-separated key columns to match rows on (default: by position)")
	threshold := fs.Float64("threshold", 0.1, "relative worsening to flag, e.g. 0.1 = +10% (0 flags any worsening)")
	metrics := fs.String("metrics", "", "only gate metric names matching this regexp")
	gateOn := fs.Bool("gate", true, "exit 1 when a regression is flagged")
	jsonOut := fs.Bool("json", false, "emit the atlahs.diff/v1 document instead of text")
	htmlOut := fs.String("html", "", "also render the HTML report to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of this invocation to FILE (go tool pprof format)")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to FILE (go tool pprof format)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "atlahs-analyze diff: want exactly two artifact paths")
		return 2
	}
	stop, err := profiling.Start("atlahs-analyze", *cpuprofile, *memprofile)
	if err != nil {
		return fail(err)
	}
	defer stop()
	if err := analyze.CheckThreshold(*threshold); err != nil {
		return fail(fmt.Errorf("bad -threshold: %w", err))
	}
	gate := analyze.Gate{RelThreshold: *threshold}
	if *metrics != "" {
		re, err := regexp.Compile(*metrics)
		if err != nil {
			return fail(fmt.Errorf("bad -metrics pattern: %w", err))
		}
		gate.Metrics = re
	}
	a, err := loadSweep(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	b, err := loadSweep(fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	var opts analyze.DiffOptions
	if *keys != "" {
		opts.Keys = strings.Split(*keys, ",")
	}
	d, err := analyze.Diff(a, b, opts)
	if err != nil {
		return fail(err)
	}
	regs := gate.Diff(d)
	if *jsonOut {
		if err := results.EncodeDiffJSON(os.Stdout, d); err != nil {
			return fail(err)
		}
	} else {
		printDiff(d)
	}
	// REGRESSION lines go to stderr so they survive -json without
	// corrupting it.
	for _, r := range regs {
		fmt.Fprintln(os.Stderr, r)
	}
	if *htmlOut != "" {
		report := &analyze.Report{
			Title:       fmt.Sprintf("atlahs analyze: %s vs %s", d.A, d.B),
			Diff:        d,
			Regressions: regs,
		}
		if err := writeReport(*htmlOut, report); err != nil {
			return fail(err)
		}
	}
	if *gateOn && len(regs) > 0 {
		return 1
	}
	return 0
}

// printDiff writes the text summary of a diff to stdout.
func printDiff(d *results.SweepDiff) {
	fmt.Printf("diff %s vs %s: %d/%d rows matched, %d changed", d.A, d.B, d.Matched, d.RowsA, d.Changed)
	if n := len(d.RowsOnlyA); n > 0 {
		fmt.Printf(", %d only in %s", n, d.A)
	}
	if n := len(d.RowsOnlyB); n > 0 {
		fmt.Printf(", %d only in %s", n, d.B)
	}
	fmt.Println()
	for _, row := range d.Rows {
		for _, f := range row.Fields {
			where := "row " + fmt.Sprint(row.Row)
			if row.Key != nil {
				where = analyze.FormatKey(row.Key)
			}
			fmt.Printf("  %s %s: %v -> %v\n", where, f.Column, f.A, f.B)
		}
	}
	for _, s := range d.Derived {
		fmt.Printf("  derived %s: %v -> %v\n", s.Key, s.A, s.B)
	}
	for _, p := range d.Params {
		fmt.Printf("  param %s: %q -> %q\n", p.Key, p.A, p.B)
	}
}

// writeReport renders the HTML report to path.
func writeReport(path string, report *analyze.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := analyze.RenderHTML(f, report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadSweep(path string) (*results.Sweep, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := results.DecodeJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

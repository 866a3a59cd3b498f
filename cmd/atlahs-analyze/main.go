// Command atlahs-analyze reads the artifacts the rest of the toolchain
// writes — atlahs.results/v1 sweeps and the simulation service's run
// store — and answers "what changed, and did it get worse?".
//
// Usage:
//
//	atlahs-analyze diff [-keys cols] [-threshold F] [-metrics RE]
//	                    [-gate] [-json] [-html FILE] A.json B.json
//	atlahs-analyze history -store DIR [-threshold F] [-mad K]
//	                    [-metrics RE] [-gate] [-json] [-html FILE]
//
// diff compares two sweep artifacts field by field — B relative to A —
// matching rows on -keys columns (comma-separated) or by position, and
// prints the changed records. history walks an existing service artifact
// store's runs oldest-first into per-metric trajectories. Both gate the
// result (one-sided: higher is worse) and print one "REGRESSION ..." line
// per flagged metric, naming the regressed record.
//
// -json emits the machine document instead of text (atlahs.diff/v1 for
// diff, atlahs.history/v1 for history); -html FILE renders the
// deterministic HTML report; -gate=false reports without gating.
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
	case "history":
		return runHistory(args[1:])
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
  atlahs-analyze diff    [flags] A.json B.json   compare two sweep artifacts
  atlahs-analyze history [flags]                 trajectories from a run store
run "atlahs-analyze <subcommand> -h" for flags.
`)
}

// gateFlags are the flags both subcommands share.
type gateFlags struct {
	threshold  float64
	madK       float64
	metrics    string
	gate       bool
	jsonOut    bool
	htmlOut    string
	cpuprofile string
	memprofile string
}

func (g *gateFlags) register(fs *flag.FlagSet, withMAD bool) {
	fs.Float64Var(&g.threshold, "threshold", 0.1, "relative worsening to flag, e.g. 0.1 = +10% (0 flags any worsening)")
	if withMAD {
		fs.Float64Var(&g.madK, "mad", 3, "robust gate: also require the last point to exceed median + K*MAD (0 disables)")
	}
	fs.StringVar(&g.metrics, "metrics", "", "only gate metric names matching this regexp")
	fs.BoolVar(&g.gate, "gate", true, "exit 1 when a regression is flagged")
	fs.BoolVar(&g.jsonOut, "json", false, "emit the machine-readable document instead of text")
	fs.StringVar(&g.htmlOut, "html", "", "also render the HTML report to this file")
	fs.StringVar(&g.cpuprofile, "cpuprofile", "", "write a CPU profile of this invocation to FILE (go tool pprof format)")
	fs.StringVar(&g.memprofile, "memprofile", "", "write a heap profile at exit to FILE (go tool pprof format)")
}

// profile starts the shared profiling helper from the subcommand's flags.
func (g *gateFlags) profile() (func(), error) {
	return profiling.Start("atlahs-analyze", g.cpuprofile, g.memprofile)
}

func (g *gateFlags) build() (analyze.Gate, error) {
	gate := analyze.Gate{RelThreshold: g.threshold, MADK: g.madK}
	if g.metrics != "" {
		re, err := regexp.Compile(g.metrics)
		if err != nil {
			return gate, fmt.Errorf("bad -metrics pattern: %w", err)
		}
		gate.Metrics = re
	}
	return gate, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "atlahs-analyze:", err)
	return 2
}

func runDiff(args []string) int {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	keys := fs.String("keys", "", "comma-separated key columns to match rows on (default: by position)")
	var gf gateFlags
	gf.register(fs, false)
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "atlahs-analyze diff: want exactly two artifact paths")
		return 2
	}
	stop, err := gf.profile()
	if err != nil {
		return fail(err)
	}
	defer stop()
	gate, err := gf.build()
	if err != nil {
		return fail(err)
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
	report := &analyze.Report{
		Title:       fmt.Sprintf("atlahs analyze: %s vs %s", d.A, d.B),
		Diff:        d,
		Regressions: regs,
	}
	if err := emit(&gf, report, func() error { return results.EncodeDiffJSON(os.Stdout, d) }, func() {
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
	}); err != nil {
		return fail(err)
	}
	return verdict(&gf, regs)
}

func runHistory(args []string) int {
	fs := flag.NewFlagSet("history", flag.ExitOnError)
	store := fs.String("store", "", "service artifact store directory (required)")
	var gf gateFlags
	gf.register(fs, true)
	fs.Parse(args)
	if *store == "" || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "atlahs-analyze history: want -store DIR and no positional arguments")
		return 2
	}
	stop, err := gf.profile()
	if err != nil {
		return fail(err)
	}
	defer stop()
	gate, err := gf.build()
	if err != nil {
		return fail(err)
	}
	// history only reads: results.NewStore would create a mistyped
	// directory and report its empty history as clean.
	if fi, err := os.Stat(*store); err != nil {
		return fail(err)
	} else if !fi.IsDir() {
		return fail(fmt.Errorf("-store %s is not a directory", *store))
	}
	st, err := results.NewStore(*store)
	if err != nil {
		return fail(err)
	}
	series, warnings, err := analyze.StoreHistory(st)
	if err != nil {
		return fail(err)
	}
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, "atlahs-analyze: warning:", w)
	}
	regs := gate.Series(series)
	report := &analyze.Report{Title: "atlahs analyze: run history", History: series, Regressions: regs, Warnings: warnings}
	if err := emit(&gf, report, func() error {
		return results.EncodeDoc(os.Stdout, analyze.History{Schema: analyze.HistorySchema, Series: series, Warnings: warnings})
	}, func() {
		for _, s := range series {
			unit := ""
			if s.Unit != "" {
				unit = " " + s.Unit
			}
			last := s.Points[len(s.Points)-1]
			fmt.Printf("%s: %d points, last %v%s (%s)\n", s.Metric, len(s.Points), last.Value, unit, last.Label)
		}
	}); err != nil {
		return fail(err)
	}
	return verdict(&gf, regs)
}

// emit writes the selected outputs: the machine document or the text
// summary to stdout, plus the optional HTML report file. REGRESSION
// lines go to stderr so they survive -json without corrupting it.
func emit(gf *gateFlags, report *analyze.Report, machine func() error, text func()) error {
	if gf.jsonOut {
		if err := machine(); err != nil {
			return err
		}
	} else {
		text()
	}
	for _, r := range report.Regressions {
		fmt.Fprintln(os.Stderr, r)
	}
	if gf.htmlOut != "" {
		f, err := os.Create(gf.htmlOut)
		if err != nil {
			return err
		}
		if err := analyze.RenderHTML(f, report); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// verdict maps the gate outcome to the exit status.
func verdict(gf *gateFlags, regs []analyze.Regression) int {
	if gf.gate && len(regs) > 0 {
		return 1
	}
	return 0
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

// Command benchjson converts `go test -bench` text output (stdin) into a
// small JSON document mapping benchmark name to ns/op, so CI can record
// the performance trajectory as an artifact (BENCH_ci.json) instead of a
// log to eyeball. No external dependencies — the parser is the standard
// benchmark line format:
//
//	BenchmarkName-8   3   123456 ns/op [extra metrics...]
//
// Usage:
//
//	go test -run XXX -bench . -benchtime 3x . | benchjson -out BENCH_ci.json
//
// Names are recorded exactly as printed — including the "-N" GOMAXPROCS
// suffix when present — because the text format cannot distinguish that
// suffix from a sub-benchmark name ending in "-N" (go omits it entirely
// when GOMAXPROCS is 1). Zero parsed benchmarks is an error: it means the
// bench run or the pipe broke, not that performance is fine.
//
// -require takes a comma-separated list of benchmark function names and
// demands that every one produced at least one result line — either the
// bare name or the name followed by a "/sub" case or "-N" suffix. Partial
// output (a benchmark silently skipped, renamed or crashed mid-run while
// earlier ones printed fine) then fails the pipeline instead of quietly
// shrinking the tracked trajectory.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"atlahs/internal/analyze"
	"atlahs/results"
)

// benchLineRE matches one benchmark result line: name, iteration count,
// ns/op. Extra metrics after ns/op are ignored.
var benchLineRE = regexp.MustCompile(`^(Benchmark[^\s]+)\s+(\d+)\s+([0-9.]+) ns/op`)

func main() {
	out := flag.String("out", "", "output path (default stdout)")
	require := flag.String("require", "", "comma-separated benchmark names that must each appear in the output")
	flag.Parse()
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := checkRequired(rep, *require); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
		w = f
	}
	if err := results.EncodeDoc(w, rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// parse scans bench output and collects name -> ns/op.
func parse(r io.Reader) (*analyze.BenchReport, error) {
	rep := &analyze.BenchReport{Schema: analyze.BenchSchema, Go: runtime.Version(), Benchmarks: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLineRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		nsPerOp, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad ns/op in %q: %w", sc.Text(), err)
		}
		if _, dup := rep.Benchmarks[m[1]]; dup {
			// A repeated name (e.g. `go test -count 2`) would silently keep
			// one arbitrary sample in the tracked trajectory; refuse instead.
			return nil, fmt.Errorf("benchjson: benchmark %q appears more than once (ran with -count > 1?); one sample per name required", m[1])
		}
		rep.Benchmarks[m[1]] = nsPerOp
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchjson: no benchmark result lines on stdin (did the bench run fail?)")
	}
	return rep, nil
}

// checkRequired verifies every -require name is represented in the
// parsed report. A recorded name counts toward a required one when it is
// the name itself or the name followed by a '/' sub-case or '-' suffix
// (the GOMAXPROCS decoration), so "BenchmarkX" accepts "BenchmarkX-8"
// and "BenchmarkX/case-8" but not "BenchmarkXL".
func checkRequired(rep *analyze.BenchReport, require string) error {
	if require == "" {
		return nil
	}
	var missing []string
	for _, want := range strings.Split(require, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		found := false
		for name := range rep.Benchmarks {
			if name == want ||
				(strings.HasPrefix(name, want) && (name[len(want)] == '/' || name[len(want)] == '-')) {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, want)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("benchjson: required benchmark(s) missing from output: %s (partial bench run?)", strings.Join(missing, ", "))
	}
	return nil
}

// Command atlahs runs a workload on a chosen network backend — the
// toolchain's simulation entry point, a thin shell over the sim facade —
// and doubles as the client of the simulation server, cmd/atlahsd.
//
// Usage:
//
//	atlahs -goal sched.bin [flags]            # pre-converted GOAL schedule
//	atlahs -trace run.nsys [flags]            # direct trace replay
//	atlahs -trace run.bin -frontend goal      # explicit frontend
//	atlahs -spec run.json [flags]             # atlahs.spec/v1 wire spec
//	atlahs -submit URL -spec run.json         # submit to a running server
//	atlahs -submit URL -sweep a.json b.json   # batch-submit specs as one sweep
//
// Flags: [-backend lgs|pkt|fluid] [-params ai|hpc] [-hosts-per-tor 4]
// [-oversub 1] [-cc mprdma] [-seed 1] [-progress 0] [-json]
// [-cpuprofile FILE] [-memprofile FILE] [-timeline FILE]
//
// -cpuprofile writes a CPU profile of the whole invocation and
// -memprofile a heap profile at exit (after a final GC), both in the
// format `go tool pprof` reads — so profiling a simulation needs no
// patched binary. Profiles are flushed on error exits too.
//
// -timeline records a local run's op completions, one instant per op on
// its rank's row, and writes them as Chrome trace-event JSON, loadable in
// Perfetto (or chrome://tracing). Timestamps are simulated time and every
// local run is serial, so the file is as deterministic as the result and
// the same bytes whatever a spec file's "workers" asks for.
//
// -goal takes a GOAL file, textual or binary (auto-detected). -trace takes
// a raw application trace (nsys report, MPI trace, SPC block-I/O trace,
// Chakra ET, or a GOAL file) and ingests it through the workload-frontend
// registry: the format is sniffed from the content (extension as
// fallback), or named explicitly with -frontend; conversion uses that
// frontend's defaults (use the sim library for tuned conversion). -spec
// takes a marshalled sim.Spec (sim.MarshalSpec, schema atlahs.spec/v1) —
// including multi-job compositions — and is authoritative: workload and
// backend flags may not be combined with it.
// -json prints the run's result — runtime, schedule accounting,
// executed-op tallies, per-job node sets, fabric counters — as one JSON
// object on stdout.
//
// -submit sends the spec to a running atlahsd server, waits, and prints
// the result exactly like a local -json run — identical submissions are
// answered from the server's content-addressed run cache without
// simulating again. -submit with -sweep batch-submits every spec file
// named as a positional argument as one POST /v1/sweeps payload: the
// server fingerprints all of them, collapses duplicates against each
// other and its cache, and answers with the combined view, which is
// printed per run (or as the raw combined JSON with -json).
//
// The lgs backend is topology-oblivious; pkt and fluid build a two-level
// fat tree sized to the schedule. A backend flag the chosen backend does
// not read (-hosts-per-tor, -oversub or -cc on lgs, -params on pkt or
// fluid, -cc on fluid) is refused, as is a -params other than ai or hpc.
// Every local run is serial: atlahs runs it with a context that an
// interrupt cancels, and a cancellable run never takes the sharded
// parallel engine, so a spec file's "workers" decodes and changes
// nothing. There is no -workers flag.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"atlahs/internal/profiling"
	"atlahs/internal/service"
	"atlahs/results"
	"atlahs/sim"
)

func main() {
	goalPath := flag.String("goal", "", "GOAL schedule file (text or binary)")
	tracePath := flag.String("trace", "", "raw application trace to replay through a workload frontend")
	frontendName := flag.String("frontend", "", "workload frontend for -trace: "+strings.Join(sim.Frontends(), ", ")+" (default: auto-detect)")
	specPath := flag.String("spec", "", "atlahs.spec/v1 spec file (authoritative; excludes workload/backend flags)")
	be := flag.String("backend", "lgs", "backend: lgs, pkt or fluid")
	params := flag.String("params", "ai", "LogGOPS parameter set: ai or hpc")
	hostsPerToR := flag.Int("hosts-per-tor", 4, "fat-tree hosts per ToR (pkt/fluid)")
	oversub := flag.Int("oversub", 1, "fat-tree ToR:core oversubscription (pkt/fluid)")
	ccName := flag.String("cc", "mprdma", "congestion control (pkt): mprdma, swift, dctcp, ndp")
	seed := flag.Uint64("seed", 1, "simulation seed")
	calcScale := flag.Float64("calc-scale", 1.0, "hardware adaptation factor for calc times")
	progress := flag.Int64("progress", 0, "print progress every N completed ops of a local run without -json (0 = off)")
	jsonOut := flag.Bool("json", false, "print the result as one JSON object on stdout")
	submitURL := flag.String("submit", "", "submit the spec to a running atlahsd server at this base URL")
	sweepMode := flag.Bool("sweep", false, "with -submit: batch-submit the spec files given as positional arguments as one sweep")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of this invocation to FILE (go tool pprof format)")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to FILE (go tool pprof format)")
	timelinePath := flag.String("timeline", "", "write the run's op completions to FILE as Chrome trace-event JSON (local runs only; open in Perfetto)")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	stop, err := profiling.Start("atlahs", *cpuprofile, *memprofile)
	if err != nil {
		fail(err)
	}
	profileStop = stop
	defer profileStop()

	// A flag the chosen mode would ignore is refused before any I/O.
	switch {
	case set["timeline"] && *submitURL != "":
		// The simulation happens server-side; its recorder does too (see
		// atlahsd -timeline and GET /v1/runs/{id}/trace).
		fail(fmt.Errorf("-timeline records local runs; the server's trace endpoint covers -submit"))
	case set["progress"] && *submitURL != "":
		fail(fmt.Errorf("-progress reports a local run's completions; drop it with -submit"))
	case set["progress"] && *jsonOut:
		fail(fmt.Errorf("-progress prints console lines; drop it with -json, which prints one JSON object"))
	}

	if *sweepMode {
		// A sweep is a batch of authoritative spec files, so the same flags
		// that conflict with -spec conflict here, plus -spec itself.
		if *submitURL == "" {
			fail(fmt.Errorf("-sweep batch-submits to a server; set -submit URL"))
		}
		for _, name := range []string{"goal", "trace", "frontend", "spec", "backend", "params", "hosts-per-tor", "oversub", "cc", "seed", "calc-scale"} {
			if set[name] {
				fail(fmt.Errorf("-sweep takes spec files as arguments; drop -%s (set it inside the spec files)", name))
			}
		}
		if flag.NArg() == 0 {
			fail(fmt.Errorf("-sweep needs at least one spec file argument"))
		}
		if err := submitSweep(*submitURL, flag.Args(), *jsonOut); err != nil {
			fail(err)
		}
		return
	}
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected arguments %q (spec files are only positional with -sweep)", flag.Args()))
	}

	var spec sim.Spec
	if *specPath != "" {
		// The spec file is the whole declaration: rebuilding parts of it
		// from flags would silently disagree with what was submitted, so
		// spec-shaping flags conflict instead.
		for _, name := range []string{"goal", "trace", "frontend", "backend", "params", "hosts-per-tor", "oversub", "cc", "seed", "calc-scale", "progress"} {
			if set[name] {
				fail(fmt.Errorf("-spec is authoritative; drop -%s (set it inside the spec file)", name))
			}
		}
		b, err := os.ReadFile(*specPath)
		if err != nil {
			fail(err)
		}
		if spec, err = sim.UnmarshalSpec(b); err != nil {
			fail(err)
		}
	} else {
		if (*goalPath == "") == (*tracePath == "") {
			fmt.Fprintln(os.Stderr, "atlahs: set exactly one of -goal, -trace or -spec")
			flag.Usage()
			os.Exit(2)
		}
		if *frontendName != "" && *tracePath == "" {
			fail(fmt.Errorf("-frontend only applies to -trace"))
		}
		if *params != "ai" && *params != "hpc" {
			fail(fmt.Errorf("-params %q: want ai or hpc", *params))
		}
		for _, name := range backendIgnores[*be] {
			if set[name] {
				fail(fmt.Errorf("-backend %s does not read -%s; drop it", *be, name))
			}
		}
		spec = sim.Spec{
			Workload: sim.Workload{
				GoalPath:  *goalPath,
				TracePath: *tracePath,
				Frontend:  *frontendName,
			},
			Backend:   *be,
			CalcScale: *calcScale,
			Seed:      *seed,
		}
		switch *be {
		case "lgs":
			p := sim.AIParams()
			if *params == "hpc" {
				p = sim.HPCParams()
			}
			spec.Config = sim.LGSConfig{Params: p}
		case "pkt":
			spec.Config = sim.PktConfig{
				HostsPerToR: *hostsPerToR,
				Oversub:     *oversub,
				CC:          *ccName,
			}
		case "fluid":
			spec.Config = sim.FluidConfig{
				HostsPerToR: *hostsPerToR,
				Oversub:     *oversub,
			}
		}
		// Unknown backend names fall through with a nil config: sim.Run
		// reports them against the full registry.
	}

	if *submitURL != "" {
		if err := submit(*submitURL, spec, *jsonOut); err != nil {
			fail(err)
		}
		return
	}

	if !*jsonOut {
		// Console rendering would corrupt the single-object JSON contract,
		// so the streaming observer only runs in text mode.
		spec.Observer = consoleObserver{}
		if *specPath == "" {
			spec.ProgressEvery = *progress
		}
	}

	var tl *sim.Timeline
	if *timelinePath != "" {
		tl = sim.NewTimeline(0)
		spec.Timeline = tl
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	res, err := sim.Run(ctx, spec)
	if err != nil {
		fail(err)
	}
	if ns := res.Net; ns != nil && !*jsonOut {
		fmt.Printf("packet stats: %d data pkts, %d drops, %d trims, %d retransmits\n",
			ns.PktsSent, ns.Drops, ns.Trims, ns.Retransmits)
	}
	if tl != nil {
		if err := writeTimeline(*timelinePath, tl); err != nil {
			fail(err)
		}
		if !*jsonOut {
			fmt.Printf("timeline: %d events written to %s\n", tl.Len(), *timelinePath)
		}
	}
	if *jsonOut {
		if err := service.WriteResultJSON(os.Stdout, res); err != nil {
			fail(err)
		}
		return
	}
	fmt.Printf("backend %s: simulated runtime %s\n", res.Backend, res.Runtime)
}

// backendIgnores names, per backend, the backend flags it does not read:
// lgs models no fabric, and pkt and fluid take host overheads, not a
// LogGOPS set; fluid has no congestion control.
var backendIgnores = map[string][]string{
	"lgs":   {"hosts-per-tor", "oversub", "cc"},
	"pkt":   {"params"},
	"fluid": {"params", "cc"},
}

// writeTimeline persists the recorded timeline as one trace-event JSON
// document.
func writeTimeline(path string, tl *sim.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// submit sends the spec to a running server, waits for the run to finish,
// and renders the outcome: the result JSON object in -json mode (the same
// shape a local -json run prints), or the console summary plus the
// server's cache verdict in text mode.
func submit(baseURL string, spec sim.Spec, jsonOut bool) error {
	wire, err := sim.MarshalSpec(spec)
	if err != nil {
		return err
	}
	url := strings.TrimSuffix(baseURL, "/") + "/v1/runs?wait=1"
	resp, err := postRetrying(url, wire)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	cacheStatus := resp.Header.Get("Cache-Status")
	if err := serverError(resp, body); err != nil {
		return err
	}
	var run struct {
		ID     string          `json:"id"`
		Status string          `json:"status"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &run); err != nil {
		return fmt.Errorf("unreadable server response: %w", err)
	}
	switch run.Status {
	case "failed":
		return fmt.Errorf("run %s failed: %s", run.ID, run.Error)
	case "done":
	default:
		return fmt.Errorf("run %s still %s; ask the server again at /v1/runs/%s", run.ID, run.Status, run.ID)
	}
	if jsonOut {
		_, err := fmt.Fprintf(os.Stdout, "%s\n", run.Result)
		return err
	}
	var res struct {
		Backend string `json:"backend"`
		Runtime string `json:"runtime"`
	}
	if err := json.Unmarshal(run.Result, &res); err != nil {
		return fmt.Errorf("unreadable result payload: %w", err)
	}
	fmt.Printf("run %s (cache %s)\nbackend %s: simulated runtime %s\n", run.ID, cacheStatus, res.Backend, res.Runtime)
	return nil
}

// submitAttempts bounds postRetrying: the first POST plus up to three
// retries. A queue that is still full after three honest Retry-After
// waits is congested, not momentarily busy — give the caller the 503.
const submitAttempts = 4

// maxRetryAfter caps how long one Retry-After hint can make the client
// sleep, so a misbehaving server cannot park it for an hour.
const maxRetryAfter = 30 * time.Second

// postRetrying POSTs body to url, honouring the service's backpressure
// contract: a 503 carrying a valid integer Retry-After header (the
// full-queue / closing-server response) is retried after that many
// seconds, up to submitAttempts total attempts. Any other response — and
// a 503 without a usable hint — is returned as-is for serverError to
// render; transport errors are returned immediately.
func postRetrying(url string, body []byte) (*http.Response, error) {
	for attempt := 1; ; attempt++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusServiceUnavailable || attempt == submitAttempts {
			return resp, nil
		}
		seconds, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || seconds < 0 {
			return resp, nil
		}
		resp.Body.Close()
		wait := min(time.Duration(seconds)*time.Second, maxRetryAfter)
		fmt.Fprintf(os.Stderr, "server busy (503), retrying in %s (attempt %d of %d)\n",
			wait, attempt+1, submitAttempts)
		time.Sleep(wait)
	}
}

// serverError maps a non-2xx service response onto one client-side error
// carrying both the HTTP status and the server's JSON error message (the
// errorResponse body every non-2xx API response carries), falling back to
// the raw body when the message is missing. A Retry-After header — the
// 503 contract for a full queue or a closing server — is surfaced as a
// hint.
func serverError(resp *http.Response, body []byte) error {
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		return nil
	}
	retry := ""
	if after := resp.Header.Get("Retry-After"); after != "" {
		retry = fmt.Sprintf(" (retry after %ss)", after)
	}
	var er struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		return fmt.Errorf("server returned %s: %s%s", resp.Status, er.Error, retry)
	}
	return fmt.Errorf("server returned %s: %s%s", resp.Status, bytes.TrimSpace(body), retry)
}

// submitSweep batch-submits the named spec files as one POST /v1/sweeps
// payload and renders the combined view: the server's raw JSON in -json
// mode, or one line per unique run plus a summary in text mode.
func submitSweep(baseURL string, files []string, jsonOut bool) error {
	payload := service.SweepRequest{Schema: service.SweepSchema}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		// Round-trip through the codec so a broken spec file fails here,
		// with its file name, instead of as an opaque index server-side.
		spec, err := sim.UnmarshalSpec(b)
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		wire, err := sim.MarshalSpec(spec)
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		payload.Specs = append(payload.Specs, wire)
	}
	wire, err := results.MarshalDoc(payload)
	if err != nil {
		return err
	}
	url := strings.TrimSuffix(baseURL, "/") + "/v1/sweeps?wait=1"
	resp, err := postRetrying(url, wire)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if err := serverError(resp, body); err != nil {
		return err
	}
	if jsonOut {
		_, err := fmt.Fprintf(os.Stdout, "%s\n", bytes.TrimSpace(body))
		return err
	}
	var sweep struct {
		ID     string `json:"id"`
		Specs  int    `json:"specs"`
		Total  int    `json:"total"`
		Done   int    `json:"done"`
		Failed int    `json:"failed"`
		Cached int    `json:"cached"`
		Runs   []struct {
			ID     string `json:"id"`
			Status string `json:"status"`
			Cached bool   `json:"cached"`
			Error  string `json:"error"`
			Result struct {
				Backend string `json:"backend"`
				Runtime string `json:"runtime"`
			} `json:"result"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(body, &sweep); err != nil {
		return fmt.Errorf("unreadable server response: %w", err)
	}
	fmt.Printf("sweep %s: %d specs -> %d runs (%d cached, %d done, %d failed)\n",
		sweep.ID, sweep.Specs, sweep.Total, sweep.Cached, sweep.Done, sweep.Failed)
	for _, run := range sweep.Runs {
		verdict := "miss"
		if run.Cached {
			verdict = "hit"
		}
		switch run.Status {
		case "failed":
			fmt.Printf("  run %s (cache %s) failed: %s\n", run.ID, verdict, run.Error)
		case "done":
			fmt.Printf("  run %s (cache %s) backend %s: simulated runtime %s\n", run.ID, verdict, run.Result.Backend, run.Result.Runtime)
		default:
			fmt.Printf("  run %s (cache %s) still %s\n", run.ID, verdict, run.Status)
		}
	}
	if sweep.Failed > 0 {
		return fmt.Errorf("sweep %s: %d of %d runs failed", sweep.ID, sweep.Failed, sweep.Total)
	}
	return nil
}

// consoleObserver renders run callbacks in the CLI's line format.
type consoleObserver struct{ sim.NopObserver }

func (consoleObserver) RunStarted(info sim.RunInfo) {
	st := info.Stats
	fmt.Printf("schedule: %d ranks, %d ops (%d sends, %d recvs, %d calcs), %.2f MiB on the wire\n",
		st.Ranks, st.Ops, st.Sends, st.Recvs, st.Calcs, float64(st.SendBytes)/(1<<20))
}

func (consoleObserver) Progress(ev sim.ProgressEvent) {
	fmt.Printf("progress: %d/%d ops, sim time %v\n", ev.Done, ev.Total, ev.At)
}

// profileStop flushes any active profiles; fail() and the end of main
// both run it (it is idempotent, see internal/profiling) so profiles
// survive error exits, which bypass deferred calls via os.Exit.
var profileStop = func() {}

func fail(err error) {
	profileStop()
	fmt.Fprintln(os.Stderr, "atlahs:", err)
	os.Exit(1)
}

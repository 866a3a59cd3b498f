// Command atlahsd is the ATLAHS simulation server: a resident service
// that accepts atlahs.spec/v1 run specs over HTTP, executes them on a
// bounded worker pool, and answers identical re-submissions from a
// content-addressed run cache without simulating again.
//
// Usage:
//
//	atlahsd [-addr :8080] [-jobs 2] [-queue 64] [-cache 256]
//	        [-artifacts DIR] [-pprof ADDR] [-timeline]
//	        [-log-format text|json]
//
// API (see internal/service):
//
//	POST /v1/runs                submit a spec (?wait=1 blocks until done)
//	GET  /v1/runs/{id}           status / result (Cache-Status: hit|miss)
//	GET  /v1/runs/{id}/artifact  the run's atlahs.results/v1 sweep JSON
//	GET  /v1/runs/{id}/events    live run events as SSE
//	POST /v1/sweeps              batch-submit N specs as one sweep
//	GET  /v1/sweeps/{id}         combined status of a batch
//	GET  /v1/sweeps/{id}/artifact combined per-run artifact view
//	GET  /v1/runs/{id}/metrics   the run's atlahs.metrics/v1 engine
//	                             counters, once done
//	GET  /v1/runs/{id}/trace     the run's Perfetto timeline (-timeline
//	                             runs only)
//	GET  /metrics                service metrics, Prometheus text
//	                             (?format=json for atlahs.metrics/v1)
//	GET  /v1/healthz             readiness probe (queue depth, executor
//	                             occupancy, store writability, uptime)
//
// -jobs bounds how many simulations run concurrently, each on the serial
// engine, since the service observes every run it makes (a spec's
// "workers" decodes and changes nothing): parallelism is across runs,
// which measures faster than sharding one run. -queue bounds the
// submission backlog, past which submissions fail fast with 503 and
// a Retry-After header. Admission is fair-share: each submitter class
// (X-Submitter header, which must be printable UTF-8, or one per batch
// sweep) drains round-robin, FIFO within a class, so a giant sweep cannot
// starve interactive runs.
// With -artifacts every completed run's artifact is also persisted to
// DIR/<run id>.json (one atlahs.results/v1 sweep named after the run), plus
// a metadata sidecar under DIR/meta/ — and the content-addressed run
// cache becomes durable: on boot the run index is rebuilt from the
// stored artifacts, so identical re-submissions keep answering
// `Cache-Status: hit` across restarts without re-simulating (corrupt or
// partial artifacts are skipped with a logged warning).
// SIGINT/SIGTERM shut the server down gracefully.
//
// -pprof ADDR (off by default) serves net/http/pprof on a second,
// separate listener — profile a live server with e.g.
// `go tool pprof http://localhost:6060/debug/pprof/profile?seconds=30`
// without exposing the profiling endpoints on the API address.
//
// -timeline records every executed run's op completions (Chrome
// trace-event JSON; simulated-time timestamps) and serves it at
// GET /v1/runs/{id}/trace; with -artifacts the traces also persist under
// DIR/traces/. Off by default: recording touches every op completion.
//
// Operational logs are structured (log/slog) with run id, fingerprint,
// admission class and cache-status attributes on every run lifecycle
// line; -log-format picks the handler, "text" (the default) or "json"
// for log collectors.
//
// Submit a spec from the shell:
//
//	echo '{"schema":"atlahs.spec/v1","synthetic":{"pattern":"alltoall",
//	  "ranks":16,"bytes":65536},"backend":"lgs"}' |
//	  curl -s --data-binary @- localhost:8080/v1/runs?wait=1
//
// or use the bundled client: atlahs -submit http://localhost:8080 -spec f.json
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the DefaultServeMux, served only on -pprof
	"os"

	"atlahs/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	jobs := flag.Int("jobs", 2, "concurrent simulations")
	queue := flag.Int("queue", 64, "submission backlog bound")
	cache := flag.Int("cache", 256, "completed runs kept addressable")
	artifacts := flag.String("artifacts", "", "directory to persist per-run result artifacts (optional)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; off when empty)")
	timeline := flag.Bool("timeline", false, "record every run's op completions and serve them at GET /v1/runs/{id}/trace")
	logFormat := flag.String("log-format", "text", "structured log handler: text or json")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fail(fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat))
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	if *pprofAddr != "" {
		// The API listener uses its own mux (service.ListenAndServe), so
		// the pprof handlers on the DefaultServeMux are reachable only
		// through this dedicated listener.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "atlahsd: pprof listener:", err)
			}
		}()
	}

	svc, err := service.New(service.Config{
		Queue:       *queue,
		Jobs:        *jobs,
		Cache:       *cache,
		ArtifactDir: *artifacts,
		Timeline:    *timeline,
		Logger:      logger,
	})
	if err != nil {
		fail(err)
	}
	if err := service.ListenAndServe(svc, *addr); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "atlahsd:", err)
	os.Exit(1)
}

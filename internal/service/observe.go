package service

import (
	"fmt"
	"net/http"
	"os"
	"time"

	"atlahs/internal/telemetry"
	"atlahs/results"
)

// The observability surface: the service-wide metrics scrape, the per-run
// engine-counter and timeline documents, and the readiness probe.

// handleMetrics serves the service's metrics snapshot. The default is the
// Prometheus text exposition format (version 0.0.4); ?format=json renders
// the same samples as an atlahs.metrics/v1 document.
func (s *Service) handleMetrics(w http.ResponseWriter, req *http.Request) {
	samples := s.metrics.snapshot(s.sched)
	if req.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		if err := results.EncodeMetricsJSON(w, results.NewMetricsSnapshot(samples)); err != nil {
			s.log.Warn("service: writing metrics snapshot", "err", err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := telemetry.WritePrometheus(w, samples); err != nil {
		s.log.Warn("service: writing metrics exposition", "err", err)
	}
}

// handleRunMetrics serves one finished run's atlahs.metrics/v1 snapshot —
// the engine and scheduler counters of that execution (sim.Result.Metrics).
// 404 until the run is done; runs restored from sidecars written before
// metrics existed have none.
func (s *Service) handleRunMetrics(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	snap, ok := s.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", id))
		return
	}
	if snap.Status != StatusDone || snap.Result == nil || snap.Result.Metrics == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("run %s has no metrics snapshot (status %s)", id, snap.Status))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := results.EncodeMetricsJSON(w, snap.Result.Metrics); err != nil {
		s.log.Warn("service: writing run metrics", "run", id, "err", err)
	}
}

// handleRunTrace serves one finished run's op-completion timeline as Chrome
// trace-event JSON (loadable in Perfetto). The in-memory recorder answers
// for runs executed by this process with Config.Timeline on; the artifact
// store's traces/ directory answers for runs that predate the process.
// 404 when neither has it.
func (s *Service) handleRunTrace(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", id))
		return
	}
	snap := r.snapshot()
	if !snap.Status.Terminal() {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("run %s is %s; the trace exists once it is done", id, snap.Status))
		return
	}
	if r.timeline != nil {
		w.Header().Set("Content-Type", "application/json")
		if err := r.timeline.Encode(w); err != nil {
			s.log.Warn("service: writing run trace", "run", id, "err", err)
		}
		return
	}
	if s.store != nil {
		if raw, err := s.store.LoadTrace(id); err == nil {
			w.Header().Set("Content-Type", "application/json")
			if _, err := w.Write(raw); err != nil {
				s.log.Warn("service: writing run trace", "run", id, "err", err)
			}
			return
		}
	}
	s.writeError(w, http.StatusNotFound, fmt.Errorf("run %s has no recorded timeline; start the service with timeline recording on", id))
}

// healthResponse is the JSON body of GET /v1/healthz: a readiness
// snapshot, not just liveness. Ok stays true while the service can accept
// and execute work; a configured-but-unwritable artifact store turns it
// false (runs would start failing at persist time).
type healthResponse struct {
	Ok            bool            `json:"ok"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	QueueDepth    int             `json:"queue_depth"`
	Executors     executorsHealth `json:"executors"`
	Store         storeHealth     `json:"store"`
}

type executorsHealth struct {
	Busy int `json:"busy"`
	Idle int `json:"idle"`
}

type storeHealth struct {
	Configured bool   `json:"configured"`
	Writable   bool   `json:"writable"`
	Path       string `json:"path,omitempty"`
}

// handleHealthz reports readiness. Always 200 with a JSON body — probes
// key off the "ok" field, which existed before the richer fields and
// keeps its meaning.
func (s *Service) handleHealthz(w http.ResponseWriter, req *http.Request) {
	busy := int(s.metrics.execBusy.Value())
	resp := healthResponse{
		Ok:            true,
		UptimeSeconds: time.Since(s.started).Seconds(),
		QueueDepth:    s.sched.depth(),
		Executors:     executorsHealth{Busy: busy, Idle: s.cfg.Jobs - busy},
	}
	if s.store != nil {
		resp.Store = storeHealth{Configured: true, Path: s.store.Dir(), Writable: storeWritable(s.store.Dir())}
		resp.Ok = resp.Store.Writable
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// storeWritable probes the artifact directory the way the store writes:
// create a temp file, remove it.
func storeWritable(dir string) bool {
	f, err := os.CreateTemp(dir, ".healthz-*")
	if err != nil {
		return false
	}
	name := f.Name()
	f.Close()
	os.Remove(name)
	return true
}

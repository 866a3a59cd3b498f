package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unicode/utf8"

	"atlahs/results"
	"atlahs/sim"
)

// The HTTP surface of the simulation service — what atlahsd exposes:
//
//	POST /v1/runs            submit an atlahs.spec/v1 spec; ?wait=1 blocks
//	                         until the run finishes
//	GET  /v1/runs/{id}           status / result
//	GET  /v1/runs/{id}/artifact  the run's atlahs.results/v1 sweep JSON
//	GET  /v1/runs/{id}/events    the run's event stream, as SSE
//	POST /v1/sweeps          submit an atlahs.sweep/v1 batch of specs;
//	                         ?wait=1 blocks until every run finishes
//	GET  /v1/sweeps/{id}             combined status of a batch
//	GET  /v1/sweeps/{id}/artifact    combined per-run artifact view
//	GET  /v1/runs/{id}/metrics   the run's atlahs.metrics/v1 engine-counter
//	                             snapshot, once done
//	GET  /v1/runs/{id}/trace     the run's Chrome trace-event timeline
//	                             (Config.Timeline runs only), once done
//	GET  /metrics                service metrics, Prometheus text
//	                             exposition (?format=json for an
//	                             atlahs.metrics/v1 snapshot)
//	GET  /v1/healthz             readiness probe: queue depth, executor
//	                             occupancy, store writability, uptime
//
// Every /v1/runs and /v1/sweeps response carries a Cache-Status header:
// "hit" when it was answered from the content-addressed run cache without
// simulating and without waiting on a simulation (a duplicate submission,
// or a read of a run that had already finished when the request arrived),
// "miss" while the answer required simulation work — including a ?wait=1
// request that watched the run finish. 503 responses (full queue, closing
// server) carry a Retry-After header. An optional X-Submitter request
// header names the submission's fairness class; submissions without one
// share the interactive class, and each sweep defaults to its own class.
// A submitter that is not printable UTF-8 is a 400.

// maxSpecBytes bounds a POST /v1/runs or /v1/sweeps body: far above any
// reasonable payload (workloads travel inline), far below a
// memory-exhaustion vector.
const maxSpecBytes = 64 << 20

// retryAfterSeconds is the Retry-After hint on 503 responses: the queue
// drains at simulation granularity, so "soon" is the honest answer.
const retryAfterSeconds = "1"

// runResponse is the JSON body of POST /v1/runs and GET /v1/runs/{id}.
type runResponse struct {
	ID     string      `json:"id"`
	Status Status      `json:"status"`
	Cached bool        `json:"cached"`
	Error  string      `json:"error,omitempty"`
	Result *JSONResult `json:"result,omitempty"`
	// DroppedEvents counts the op/progress events the run's event stream
	// discarded to lagging subscribers — the same number the terminal SSE
	// event discloses.
	DroppedEvents int64 `json:"dropped_events"`
}

// errorResponse is the JSON body of every non-2xx API response.
type errorResponse struct {
	Error string `json:"error"`
}

// ListenAndServe exposes the service's HTTP API on addr until the
// process receives SIGINT or SIGTERM (the container-stop signal), then
// shuts down gracefully: the listener closes, in-flight requests get a
// 10-second drain window, and the service terminates every admitted run
// before returning. It owns the service's shutdown — callers hand it a
// fresh Service and it closes it. atlahsd is a thin shell over this.
func ListenAndServe(svc *Service, addr string) error {
	srv := &http.Server{Addr: addr, Handler: NewHandler(svc)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		svc.log.Info("service: listening", "addr", addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		svc.Close()
		return err
	case <-ctx.Done():
	}
	svc.log.Info("service: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	svc.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// NewHandler wraps a Service in its HTTP API.
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", svc.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", svc.handleGet)
	mux.HandleFunc("GET /v1/runs/{id}/artifact", svc.handleArtifact)
	mux.HandleFunc("GET /v1/runs/{id}/events", svc.handleEvents)
	mux.HandleFunc("POST /v1/sweeps", svc.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", svc.handleSweepGet)
	mux.HandleFunc("GET /v1/sweeps/{id}/artifact", svc.handleSweepArtifact)
	mux.HandleFunc("GET /v1/runs/{id}/metrics", svc.handleRunMetrics)
	mux.HandleFunc("GET /v1/runs/{id}/trace", svc.handleRunTrace)
	mux.HandleFunc("GET /metrics", svc.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", svc.handleHealthz)
	return mux
}

// readBody drains one bounded request body, rendering the error responses
// itself; ok=false means a response was already written.
func (s *Service) readBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(req.Body, maxSpecBytes+1))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
		return nil, false
	}
	if len(body) > maxSpecBytes {
		s.writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxSpecBytes))
		return nil, false
	}
	return body, true
}

// submitClass maps the optional X-Submitter header onto an admission
// class; absent means the shared interactive class (for /v1/runs) or the
// sweep's own class (for /v1/sweeps). The class is a label value on
// /metrics, whose text format escapes only backslash, quote and newline,
// so a submitter is refused unless it is valid UTF-8 made only of
// strconv.IsPrint runes. net/http lets a tab and bytes >= 0x80 through.
func submitClass(req *http.Request) (string, error) {
	v := req.Header.Get("X-Submitter")
	if v == "" {
		return "", nil
	}
	if !utf8.ValidString(v) || strings.ContainsFunc(v, func(r rune) bool { return !strconv.IsPrint(r) }) {
		return "", fmt.Errorf("X-Submitter %q is not printable UTF-8", v)
	}
	return "submitter:" + v, nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, req *http.Request) {
	class, err := submitClass(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	body, ok := s.readBody(w, req)
	if !ok {
		return
	}
	spec, err := sim.UnmarshalSpec(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	snap, err := s.SubmitIn(class, spec)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", retryAfterSeconds)
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	cached := snap.Cached
	if wantWait(req) && !snap.Status.Terminal() {
		waited, err := s.Wait(req.Context(), snap.ID)
		if err == nil {
			waited.Cached = cached
			snap = waited
		}
		// A wait cut short (client gone, server closing) degrades to the
		// non-terminal snapshot: a 202 the client can poll on.
	}
	s.writeRun(w, snap, cached)
}

func (s *Service) handleGet(w http.ResponseWriter, req *http.Request) {
	snap, ok := s.Get(req.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", req.PathValue("id")))
		return
	}
	// The cache verdict is decided before any waiting: a run that was
	// already done when the request arrived is a hit; one this request
	// watched finish required simulation work, exactly like the submit
	// that started it.
	hit := snap.Status == StatusDone
	if wantWait(req) && !snap.Status.Terminal() {
		if waited, err := s.Wait(req.Context(), snap.ID); err == nil {
			snap = waited
		}
	}
	s.writeRun(w, snap, hit)
}

func (s *Service) handleArtifact(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	snap, ok := s.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", id))
		return
	}
	if snap.Status != StatusDone {
		w.Header().Set("Cache-Status", "miss")
		s.writeError(w, http.StatusNotFound, fmt.Errorf("run %s is %s; the artifact exists once it is done", id, snap.Status))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Status", "hit")
	if _, err := w.Write(snap.Artifact); err != nil {
		s.log.Warn("service: writing artifact", "run", id, "err", err)
	}
}

func (s *Service) handleEvents(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	sub, ok := s.Subscribe(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", id))
		return
	}
	defer sub.Close()
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	// Detach when the client goes away so the run stops buffering for us.
	stop := req.Context().Done()
	go func() {
		<-stop
		sub.Close()
	}()
	for ev := range sub.C {
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
			return
		}
		flusher.Flush()
	}
}

// sweepResponse is the JSON body of POST /v1/sweeps and GET
// /v1/sweeps/{id}: the combined view plus one runResponse per unique run.
type sweepResponse struct {
	ID     string        `json:"id"`
	Specs  int           `json:"specs"`
	Total  int           `json:"total"`
	Done   int           `json:"done"`
	Failed int           `json:"failed"`
	Cached int           `json:"cached"`
	Runs   []runResponse `json:"runs"`
}

// sweepArtifactResponse is the combined artifact view of GET
// /v1/sweeps/{id}/artifact: every member run's atlahs.results/v1 artifact
// keyed by run id (keys sort, so the bytes are deterministic).
type sweepArtifactResponse struct {
	Schema string                     `json:"schema"`
	ID     string                     `json:"id"`
	Runs   map[string]json.RawMessage `json:"runs"`
}

// SweepSetSchema identifies the combined artifact document of GET
// /v1/sweeps/{id}/artifact.
const SweepSetSchema = "atlahs.sweepset/v1"

func (s *Service) handleSweepSubmit(w http.ResponseWriter, req *http.Request) {
	class, err := submitClass(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	body, ok := s.readBody(w, req)
	if !ok {
		return
	}
	var sr SweepRequest
	if err := results.DecodeDoc(body, "sweep", SweepSchema, &sr); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	specs := make([]sim.Spec, len(sr.Specs))
	for i, raw := range sr.Specs {
		spec, err := sim.UnmarshalSpec(raw)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("sweep spec %d: %w", i, err))
			return
		}
		specs[i] = spec
	}
	snap, err := s.SubmitSweep(class, specs)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", retryAfterSeconds)
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// Everything answered from the cache means no simulation was needed
	// for the whole sweep — the batch analogue of a run's cache hit.
	hit := snap.Cached == len(snap.Runs)
	if wantWait(req) && !snap.Terminal() {
		cachedByID := make(map[string]bool, len(snap.Runs))
		for _, rs := range snap.Runs {
			cachedByID[rs.ID] = rs.Cached
		}
		if waited, err := s.WaitSweep(req.Context(), snap.ID); err == nil {
			for i := range waited.Runs {
				if cachedByID[waited.Runs[i].ID] {
					waited.Runs[i].Cached = true
					waited.Cached++
				}
			}
			snap = waited
		}
	}
	s.writeSweep(w, snap, hit)
}

func (s *Service) handleSweepGet(w http.ResponseWriter, req *http.Request) {
	snap, ok := s.GetSweep(req.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", req.PathValue("id")))
		return
	}
	// As on run GETs, the verdict predates any waiting.
	hit := snap.Done == len(snap.Runs)
	if wantWait(req) && !snap.Terminal() {
		if waited, err := s.WaitSweep(req.Context(), snap.ID); err == nil {
			snap = waited
		}
	}
	s.writeSweep(w, snap, hit)
}

func (s *Service) handleSweepArtifact(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	runs, ok := s.sweepRuns(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", id))
		return
	}
	resp := sweepArtifactResponse{Schema: SweepSetSchema, ID: id, Runs: make(map[string]json.RawMessage, len(runs))}
	for _, r := range runs {
		rs := r.snapshot()
		if rs.Status != StatusDone {
			w.Header().Set("Cache-Status", "miss")
			s.writeError(w, http.StatusNotFound, fmt.Errorf("sweep %s: run %s is %s; the combined artifact exists once every run is done", id, rs.ID, rs.Status))
			return
		}
		resp.Runs[rs.ID] = rs.Artifact
	}
	w.Header().Set("Cache-Status", "hit")
	s.writeJSON(w, http.StatusOK, resp)
}

// wantWait reports whether the request asked to block until the run
// finishes (?wait=1 or ?wait=true).
func wantWait(req *http.Request) bool {
	switch req.URL.Query().Get("wait") {
	case "1", "true":
		return true
	}
	return false
}

// writeRun renders one run snapshot with its Cache-Status header: hit
// when the response was served by the content-addressed cache without
// simulating, miss otherwise.
func (s *Service) writeRun(w http.ResponseWriter, snap Snapshot, hit bool) {
	setCacheStatus(w, hit)
	status := http.StatusOK
	if !snap.Status.Terminal() {
		status = http.StatusAccepted
	}
	s.writeJSON(w, status, newRunResponse(snap))
}

// writeSweep renders one combined sweep view; 200 once every member run
// is terminal, 202 while any is still queued or running.
func (s *Service) writeSweep(w http.ResponseWriter, snap BatchSnapshot, hit bool) {
	setCacheStatus(w, hit)
	resp := sweepResponse{
		ID:     snap.ID,
		Specs:  snap.Specs,
		Total:  len(snap.Runs),
		Done:   snap.Done,
		Failed: snap.Failed,
		Cached: snap.Cached,
	}
	for _, rs := range snap.Runs {
		resp.Runs = append(resp.Runs, newRunResponse(rs))
	}
	status := http.StatusOK
	if !snap.Terminal() {
		status = http.StatusAccepted
	}
	s.writeJSON(w, status, resp)
}

// newRunResponse renders one snapshot into the wire shape.
func newRunResponse(snap Snapshot) runResponse {
	resp := runResponse{
		ID:            snap.ID,
		Status:        snap.Status,
		Cached:        snap.Cached,
		Error:         snap.Err,
		DroppedEvents: snap.Dropped,
	}
	if snap.Result != nil {
		resp.Result = NewJSONResult(snap.Result)
	}
	return resp
}

func setCacheStatus(w http.ResponseWriter, hit bool) {
	if hit {
		w.Header().Set("Cache-Status", "hit")
	} else {
		w.Header().Set("Cache-Status", "miss")
	}
}

// writeError renders one API error as JSON.
func (s *Service) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}

// writeJSON writes one JSON body with the right headers. Encode/write
// errors cannot reach the client (the status line is gone), so they are
// logged instead of silently dropped.
func (s *Service) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Warn("service: writing response", "type", fmt.Sprintf("%T", v), "err", err)
	}
}

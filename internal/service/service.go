// Package service turns the sim facade into a resident simulation
// service: the layer behind atlahsd.
//
// Three pieces compose. A content-addressed run cache keys every
// submission by sim.Fingerprint — the canonical result-affecting spec
// encoding plus the resolved workload digest — so identical
// re-submissions return the finished sim.Result and its exported
// atlahs.results/v1 artifact without simulating again, and concurrent
// duplicates collapse onto the in-flight run (single-flight). This is
// sound because Results are deterministic: equal fingerprints imply
// bit-identical results. With an ArtifactDir the cache is also durable:
// every completed run persists its artifact plus a metadata sidecar to
// the results.Store, and a restarted service rebuilds its run index from
// those artifacts on boot, so re-submissions keep hitting across process
// restarts (corrupt or partial artifacts are skipped with a logged
// warning, never trusted). A bounded admission queue — fair-share across
// submitter classes, FIFO within one — feeds a fixed pool of executor
// slots, each running its job on the serial engine, so the service's
// parallelism is across runs, as experiments.ForEach's is. Batch sweeps
// (SubmitSweep, POST /v1/sweeps) admit N specs as one unit, deduplicated
// against each other and the cache, each sweep its own fairness class so
// a giant batch cannot starve interactive submissions. Every run streams
// its sim.Observer callbacks to any number of subscribers — the bridge
// the HTTP server's SSE endpoint drains.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"atlahs/internal/telemetry"
	"atlahs/results"
	"atlahs/sim"
)

// Config sizes a Service. The zero value is usable: a 64-deep queue, 2
// concurrent jobs, serial runs, 256 cached runs, and no artifact
// directory.
type Config struct {
	// Queue bounds how many submitted-but-not-started jobs the service
	// holds; past it, Submit fails fast with ErrQueueFull instead of
	// accepting unbounded backlog. Default 64.
	Queue int
	// Jobs is how many simulations execute concurrently. Default 2.
	Jobs int
	// Workers may be 0 or 1 and changes nothing: the service runs every
	// job serially, whatever the spec's own Workers, so its parallelism
	// is its Jobs. New refuses any other value. atlahsd does not set it.
	Workers int
	// Cache bounds how many completed runs stay addressable; the oldest
	// completed runs are evicted first, and queued or running jobs are
	// never evicted. Default 256.
	Cache int
	// ArtifactDir, when non-empty, persists every completed run's
	// atlahs.results/v1 artifact to a results.Store at <dir>/<run id>.json
	// (plus a metadata sidecar under <dir>/meta/), and rebuilds the run
	// index from those artifacts on the next boot.
	ArtifactDir string
	// Timeline, when true, records every executed run's execution
	// timeline (Chrome trace-event JSON; see sim.Spec.Timeline) and
	// serves it at GET /v1/runs/{id}/trace; with an ArtifactDir the trace
	// also persists under <dir>/traces/. Off by default: recording
	// touches every op completion.
	Timeline bool
	// Logger receives structured operational logs (run lifecycle with
	// id/fingerprint/class attrs, skipped artifacts on rebuild, failed
	// response writes). Nil means slog.Default().
	Logger *slog.Logger
}

// withDefaults fills the documented zero-value defaults.
func (c Config) withDefaults() Config {
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.Jobs <= 0 {
		c.Jobs = 2
	}
	if c.Cache <= 0 {
		c.Cache = 256
	}
	return c
}

// Status is a run's lifecycle state.
type Status string

// Run states: queued (admitted, waiting for an executor slot), running,
// done (result and artifact available), failed.
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool { return s == StatusDone || s == StatusFailed }

// Submission errors.
var (
	// ErrQueueFull is returned by Submit when the bounded job queue is at
	// capacity.
	ErrQueueFull = errors.New("service: job queue is full; retry later")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("service: closed")
)

// Snapshot is a point-in-time copy of one run's state. Result and
// Artifact are shared read-only values; callers must not mutate them.
type Snapshot struct {
	// ID is the run's content address: "r_" plus the leading 16 hex digits
	// of the spec's fingerprint.
	ID string
	// Status is the lifecycle state at snapshot time.
	Status Status
	// Cached reports that this submission was answered by the
	// content-addressed cache — an earlier run (finished or in flight) with
	// the same fingerprint — rather than by scheduling a new simulation.
	// Snapshots from Get/Wait leave it false; it describes a submission.
	Cached bool
	// Result is the deterministic simulation result, once done.
	Result *sim.Result
	// Artifact is the run's encoded atlahs.results/v1 sweep, once done.
	Artifact []byte
	// Err is the failure message, once failed.
	Err string
	// Dropped counts the op/progress events discarded to lagging
	// subscribers of this run's event stream so far.
	Dropped int64
}

// Service is a resident simulation runner; create with New, stop with
// Close. All methods are safe for concurrent use.
type Service struct {
	cfg     Config
	store   *results.Store
	log     *slog.Logger
	metrics *serviceMetrics
	started time.Time

	ctx    context.Context
	cancel context.CancelFunc
	sched  *jobQueue
	wg     sync.WaitGroup
	// resolveSem bounds how many submissions resolve workloads (read
	// files, convert traces) concurrently on caller goroutines, so
	// admission work cannot multiply past the executor pool's own
	// parallelism.
	resolveSem chan struct{}

	mu     sync.Mutex
	closed bool
	runs   map[string]*run
	// lookaside short-circuits re-submissions of self-contained specs: it
	// maps the SHA-256 of a spec's canonical wire encoding (execution
	// knobs normalised away) to the run id, skipping workload resolution
	// entirely. Sound because a self-contained spec's wire encoding alone
	// determines its Fingerprint (see sim.Spec.SelfContained); file-backed
	// specs never enter it.
	lookaside map[string]string
	// doneOrder lists completed run ids oldest-first — the cache's
	// eviction order.
	doneOrder []string
	// batches indexes submitted sweeps by their content-derived batch id;
	// batchOrder is their eviction order, oldest first.
	batches    map[string]*batch
	batchOrder []string
}

// New starts a service: cfg.Jobs executor goroutines consuming the
// fair-share admission queue. With an ArtifactDir the run index is first
// rebuilt from the store's surviving artifacts, so the content-addressed
// cache answers re-submissions from before the restart. The errors are a
// Workers other than 0 or 1 and a broken artifact directory.
func New(cfg Config) (*Service, error) {
	if cfg.Workers != 0 && cfg.Workers != 1 {
		return nil, fmt.Errorf("service: Workers %d: every job runs serially, so Workers must be 0 or 1", cfg.Workers)
	}
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:        cfg,
		log:        cfg.Logger,
		metrics:    newServiceMetrics(),
		started:    time.Now(),
		sched:      newJobQueue(cfg.Queue),
		runs:       make(map[string]*run),
		lookaside:  make(map[string]string),
		batches:    make(map[string]*batch),
		resolveSem: make(chan struct{}, cfg.Jobs),
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	if cfg.ArtifactDir != "" {
		store, err := results.NewStore(cfg.ArtifactDir)
		if err != nil {
			return nil, err
		}
		s.store = store
		s.rebuild()
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Jobs; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				r, ok := s.sched.pop()
				if !ok {
					return
				}
				s.execute(r)
			}
		}()
	}
	return s, nil
}

// runID is the content address a run with fingerprint fp is filed
// under: "r_" plus the fingerprint's leading 16 hex digits.
func runID(fp string) string { return "r_" + fp[:16] }

// Submit admits one spec: it validates, computes the run's content
// address, and either returns the existing run at that address (Cached
// snapshot — finished runs return their result immediately, in-flight
// runs are joined without a second simulation) or enqueues a new job.
// A non-nil Observer is rejected — observation happens through Subscribe
// — and a full queue fails with ErrQueueFull. The run queues in the
// default interactive admission class; SubmitIn names one explicitly.
func (s *Service) Submit(spec sim.Spec) (Snapshot, error) {
	return s.SubmitIn(DefaultClass, spec)
}

// SubmitIn is Submit with an explicit admission class. Executor slots are
// shared round-robin across classes with pending work (FIFO within one),
// so submissions in one class — a submitter, a batch sweep — cannot
// starve the others. An empty class means DefaultClass. A run is admitted
// as a sweep of one: the same admit call, the same rules.
func (s *Service) SubmitIn(class string, spec sim.Spec) (Snapshot, error) {
	if class == "" {
		class = DefaultClass
	}
	if spec.Observer != nil {
		return Snapshot{}, fmt.Errorf("service: specs may not carry an Observer; use Subscribe on the returned run id")
	}
	adm, _, err := s.admit(class, []sim.Spec{spec})
	if err != nil {
		return Snapshot{}, err
	}
	return adm[0].snap, nil
}

// admitted is one unique run behind an admitted set of specs, with the
// submission's view of it (Cached set when an existing run answered).
type admitted struct {
	run  *run
	snap Snapshot
}

// admit is the one admission path: Submit hands it one spec, SubmitSweep
// N. It returns the unique runs behind the specs in first-appearance
// order (duplicates collapse — against each other and against the cache).
// Admission is all or none: on any error nothing was enqueued or counted;
// when one spec is to blame (it does not resolve) its index comes back,
// otherwise -1. An empty class queues the cold runs under a class of the
// set's own, derived from its content like the sweep id.
func (s *Service) admit(class string, specs []sim.Spec) ([]admitted, int, error) {
	type member struct {
		admitted
		id, fp, lookKey string
		pinned          sim.Spec
		verdict         *telemetry.Counter // the cache-verdict counter this member bumps
	}
	var members []*member
	byID := make(map[string]*member, len(specs))
	// Phase 1, without holding the service lock across resolution: find
	// every spec's run id, collapsing duplicates as they surface.
	for i := range specs {
		m := &member{lookKey: s.lookasideKey(specs[i])}
		if m.lookKey != "" {
			// Fast path: a self-contained re-submission is recognised by its
			// canonical wire bytes alone, without regenerating and digesting
			// the workload. The member keeps the *run the probe found and is
			// joined to it whatever the cache does to its address while the
			// rest of the set resolves — eviction in between cannot leave a
			// sweep with a member it knows only by name. Failed runs fall
			// through to the full path, which retries them.
			s.mu.Lock()
			if r, ok := s.runs[s.lookaside[m.lookKey]]; ok {
				if snap := r.snapshot(); snap.Status != StatusFailed {
					m.id, m.run, m.snap, m.verdict = r.id, r, snap, &s.metrics.cacheLookaside
				}
			}
			s.mu.Unlock()
		}
		if m.run == nil {
			// Resolve the workload once, under the admission bound: the
			// pinned spec carries its resolved schedule into the executor,
			// so a cold run converts its traces exactly once.
			pinned, fp, err := s.resolve(specs[i])
			if err != nil {
				return nil, i, err
			}
			m.id, m.fp, m.pinned = runID(fp), fp, pinned
		}
		if _, dup := byID[m.id]; !dup {
			byID[m.id] = m
			members = append(members, m)
		}
	}
	if class == "" {
		ids := make([]string, len(members))
		for i, m := range members {
			ids[i] = m.id
		}
		class = "sweep:" + sweepID(ids)
	}
	// Phase 2, one critical section: join the live run at each resolved
	// member's content address, retry failed ones, and enqueue every cold
	// member atomically.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, -1, ErrClosed
	}
	var cold []*run
	for _, m := range members {
		if m.run != nil {
			continue // joined at the probe
		}
		if r, ok := s.runs[m.id]; ok {
			if snap := r.snapshot(); snap.Status != StatusFailed {
				m.run, m.snap, m.verdict = r, snap, &s.metrics.cacheHit
				s.indexLocked(m.lookKey, r)
				continue
			}
			// A failure is not a result: drop the terminal failed run and
			// retry, so a transient cause (full disk, a racing file write)
			// does not poison the content address forever.
			s.dropLocked(m.id)
		}
		m.run, m.verdict = newRun(m.id, m.fp, m.pinned), &s.metrics.cacheMiss
		m.run.class = class
		m.run.mx = s.metrics
		m.snap = m.run.snapshot()
		cold = append(cold, m.run)
	}
	if err := s.sched.push(class, cold...); err != nil {
		s.mu.Unlock()
		return nil, -1, err
	}
	for _, m := range members {
		if m.verdict == &s.metrics.cacheMiss {
			s.runs[m.id] = m.run
			s.indexLocked(m.lookKey, m.run)
		}
	}
	s.mu.Unlock()
	out := make([]admitted, len(members))
	for i, m := range members {
		m.verdict.Inc()
		if m.verdict != &s.metrics.cacheMiss {
			m.snap.Cached = true
			if !m.snap.Status.Terminal() {
				s.metrics.singleflight.Inc()
			}
		}
		out[i] = m.admitted
	}
	return out, -1, nil
}

// resolve resolves one spec under the admission bound. The slot is
// released however resolution ends: a generator that panics (which the
// HTTP server recovers per request) must not take it for good.
func (s *Service) resolve(spec sim.Spec) (sim.Spec, string, error) {
	s.resolveSem <- struct{}{}
	defer func() { <-s.resolveSem }()
	return sim.ResolveSpec(spec)
}

// indexLocked files a run under a lookaside key (no-op for the empty key
// of a file-backed spec, and for a key already filed under this run: the
// submissions that join a run in admit's second phase all bring its key).
// The caller holds s.mu.
func (s *Service) indexLocked(key string, r *run) {
	if key != "" && s.lookaside[key] != r.id {
		s.lookaside[key] = r.id
		r.lookKeys = append(r.lookKeys, key)
	}
}

// forgetLocked removes a run from the index: its address and the lookaside
// keys filed under it. It reports whether the run was indexed. The caller
// holds s.mu and keeps doneOrder.
func (s *Service) forgetLocked(id string) bool {
	r, ok := s.runs[id]
	if !ok {
		return false
	}
	for _, key := range r.lookKeys {
		delete(s.lookaside, key)
	}
	delete(s.runs, id)
	return true
}

// evictLocked forgets the oldest terminal runs until at most Cache remain.
// The caller holds s.mu.
func (s *Service) evictLocked() {
	for len(s.doneOrder) > s.cfg.Cache {
		evict := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		if s.forgetLocked(evict) {
			s.metrics.evictedRuns.Inc()
		}
	}
}

// dropLocked forgets a terminal run: its address, lookaside keys and
// eviction-order entry. The caller holds s.mu.
func (s *Service) dropLocked(id string) {
	if !s.forgetLocked(id) {
		return
	}
	for i, done := range s.doneOrder {
		if done == id {
			s.doneOrder = append(s.doneOrder[:i], s.doneOrder[i+1:]...)
			break
		}
	}
}

// lookasideKey computes the fast-path cache key: the SHA-256 of the
// spec's canonical wire encoding with the result-neutral execution knobs
// normalised away. Empty when the spec is file-backed (the key would go
// stale with the file) or cannot be marshalled (third-party config
// without a wire type) — those take the full fingerprint path.
func (s *Service) lookasideKey(spec sim.Spec) string {
	if !spec.SelfContained() {
		return ""
	}
	spec.Workers = 0
	spec.ProgressEvery = 0
	b, err := sim.MarshalSpec(spec)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Get returns the run at a content address.
func (s *Service) Get(id string) (Snapshot, bool) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return Snapshot{}, false
	}
	return r.snapshot(), true
}

// Wait blocks until the run reaches a terminal state (returning its final
// snapshot) or ctx ends (returning ctx's error). An already-finished run
// always returns its snapshot, even on a context that is already
// cancelled — the answer exists, no waiting happened.
func (s *Service) Wait(ctx context.Context, id string) (Snapshot, error) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return Snapshot{}, fmt.Errorf("service: unknown run %q", id)
	}
	// Resolve the done-and-cancelled race deterministically in favour of
	// the snapshot.
	select {
	case <-r.done:
		return r.snapshot(), nil
	default:
	}
	select {
	case <-r.done:
		return r.snapshot(), nil
	case <-ctx.Done():
		return Snapshot{}, ctx.Err()
	}
}

// Close stops the service: no new submissions, running jobs are
// cancelled, queued jobs drain as failures, and every run reaches a
// terminal state before Close returns.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.sched.close()
	s.wg.Wait()
}

// execute runs one job on an executor slot, on the serial engine.
func (s *Service) execute(r *run) {
	s.metrics.execBusy.Inc()
	defer s.metrics.execBusy.Dec()
	r.setStatus(StatusRunning)
	s.log.Info("service: run started", "run", r.id, "fingerprint", r.fp, "class", r.class, "cache", "miss")
	// The spec, resolved schedule included, is needed only here: a run
	// that stays cached holds its result, not its input.
	spec := r.spec
	r.spec = sim.Spec{}
	spec.Observer = r
	if s.cfg.Timeline {
		r.timeline = telemetry.NewTimeline(0)
		spec.Timeline = r.timeline
	}
	start := time.Now()
	res, err := s.simulate(spec)
	wall := time.Since(start)
	s.metrics.runWall.Observe(wall.Seconds())
	if err != nil {
		s.finishRun(r, wall, nil, nil, err)
		return
	}
	s.metrics.engineEvents.Add(res.Events)
	// The artifact is encoded once: the store writes the bytes it serves.
	artifact, err := results.AppendJSON(nil, runSweep(r.id, res))
	if err != nil {
		s.finishRun(r, wall, nil, nil, fmt.Errorf("service: encoding run artifact: %w", err))
		return
	}
	if s.store != nil {
		if err := s.store.SaveJSON(r.id, artifact); err != nil {
			s.finishRun(r, wall, nil, nil, err)
			return
		}
		// The sidecar makes the artifact trustworthy again after a restart;
		// a run whose sidecar cannot be written is failed like one whose
		// artifact cannot, so "done with a store" always means "restorable".
		if err := s.saveMeta(r, res); err != nil {
			s.finishRun(r, wall, nil, nil, err)
			return
		}
		// A trace is observability, not a result: failing to persist one
		// degrades to in-memory serving rather than failing the run.
		if r.timeline != nil {
			if err := s.store.SaveTrace(r.id, r.timeline.Encode); err != nil {
				s.log.Warn("service: persisting run trace", "run", r.id, "err", err)
			}
		}
	}
	s.finishRun(r, wall, res, artifact, nil)
}

// runPanic is the error of a run that panicked: a model bug or a violated
// assertion.
type runPanic struct {
	value any
	stack []byte
}

func (p *runPanic) Error() string { return fmt.Sprintf("service: run panicked: %v", p.value) }

// simulate is sim.Run with a panic contained to the run it came from: the
// run fails with a runPanic and the executor goes on to the next one.
func (s *Service) simulate(spec sim.Spec) (res *sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, &runPanic{value: v, stack: debug.Stack()}
		}
	}()
	return sim.Run(s.ctx, spec)
}

// finishRun records a terminal run everywhere it must land — the outcome
// counter, the structured log, the eviction order — and only then makes
// it terminal (done with its result and artifact, or failed with err),
// which releases its waiters: whoever sees the run finished also sees the
// bookkeeping, and a failed run is always in the eviction order by the
// time a re-submission drops it to retry.
func (s *Service) finishRun(r *run, wall time.Duration, res *sim.Result, artifact []byte, err error) {
	if err != nil {
		s.metrics.runsFailed.Inc()
		attrs := []any{"run", r.id, "fingerprint", r.fp, "class", r.class, "wall", wall, "err", err}
		var p *runPanic
		if errors.As(err, &p) {
			attrs = append(attrs, "stack", string(p.stack))
		}
		s.log.Warn("service: run failed", attrs...)
	} else {
		s.metrics.runsDone.Inc()
		s.log.Info("service: run finished", "run", r.id, "fingerprint", r.fp, "class", r.class, "wall", wall, "dropped_events", r.drops.Load())
	}
	s.noteDone(r.id)
	if err != nil {
		r.fail(err)
	} else {
		r.complete(res, artifact)
	}
}

// noteDone records a terminal run (done or failed — both stay
// addressable, both count against the bound) for cache-eviction ordering
// and evicts past it.
func (s *Service) noteDone(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.doneOrder = append(s.doneOrder, id)
	s.evictLocked()
	// Retried failures re-enter doneOrder; the dropLocked in admit keeps
	// at most one entry per id, so no double-eviction bookkeeping is
	// needed here.
}

// runSweep exports one run's deterministic outcome as its
// atlahs.results/v1 artifact: a per-rank completion table named by the
// run id, with the headline scalars as derived values. Wall-clock and
// worker-count measurements are deliberately absent — the artifact must
// be byte-identical across re-simulations of the same fingerprint.
func runSweep(id string, res *sim.Result) *results.Sweep {
	sw := results.NewSweep(id, "atlahs service run "+id, "service")
	sw.SetParam("backend", res.Backend)
	sw.SetParam("ranks", strconv.Itoa(res.Ranks))
	if len(res.JobNodes) > 0 {
		sw.SetParam("jobs", strconv.Itoa(len(res.JobNodes)))
	}
	sw.AddColumn("rank", results.Int, "")
	sw.AddColumn("end", results.Duration, "ps")
	for rank, end := range res.RankEnd {
		sw.MustAddRow(int64(rank), int64(end))
	}
	sw.SetDerived("runtime_ps", float64(res.Runtime))
	sw.SetDerived("ops", float64(res.Ops))
	sw.SetDerived("events", float64(res.Events))
	sw.SetDerived("done_calcs", float64(res.Done.Calcs))
	sw.SetDerived("done_sends", float64(res.Done.Sends))
	sw.SetDerived("done_recvs", float64(res.Done.Recvs))
	return sw
}

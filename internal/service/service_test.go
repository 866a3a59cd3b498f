package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atlahs/internal/backend"
	"atlahs/internal/workload/micro"
	"atlahs/results"
	"atlahs/sim"
)

// The test backends wrap the real LGS model so runs produce real results,
// while counting (and optionally gating) factory calls: the cache's
// "exactly one simulation" claims are asserted on simCount, blockGate
// lets tests hold a run mid-flight deterministically, gateEntered /
// gateRelease signal entry into (and control exit from) a gated factory,
// and orderSeen records the execution order of ordersim runs by seed.
// The "gated" generator does for admission what gatesim does for a run:
// it runs inside sim.ResolveSpec on the submitter's goroutine, signals
// genEntered and waits for genRelease, so a test can act while a
// submission is held between its lookaside probe and its second phase.
// The "panicgen" generator panics inside sim.ResolveSpec.
var (
	simCount    atomic.Int64
	blockGate   = make(chan struct{})
	gateEntered = make(chan struct{})
	gateRelease = make(chan struct{})
	genEntered  = make(chan struct{})
	genRelease  = make(chan struct{})
	orderMu     sync.Mutex
	orderSeen   []uint64
)

func init() {
	sim.RegisterGenerator(sim.GeneratorDef{Name: "panicgen", New: func(req sim.GenRequest) (*sim.Schedule, error) {
		panic("panicgen")
	}})
	sim.RegisterGenerator(sim.GeneratorDef{Name: "gated", New: func(req sim.GenRequest) (*sim.Schedule, error) {
		genEntered <- struct{}{}
		<-genRelease
		return micro.Ring(req.Ranks, req.Synthetic.Bytes), nil
	}})
	sim.Register(sim.Definition{
		Name:     "countsim",
		Parallel: true,
		New: func(cfg any, env sim.Env) (sim.Backend, error) {
			simCount.Add(1)
			return backend.NewLGS(backend.AIParams()), nil
		},
	})
	sim.Register(sim.Definition{
		Name:     "blocksim",
		Parallel: true,
		New: func(cfg any, env sim.Env) (sim.Backend, error) {
			<-blockGate
			return backend.NewLGS(backend.AIParams()), nil
		},
	})
	sim.Register(sim.Definition{
		Name:     "gatesim",
		Parallel: true,
		New: func(cfg any, env sim.Env) (sim.Backend, error) {
			gateEntered <- struct{}{}
			<-gateRelease
			return backend.NewLGS(backend.AIParams()), nil
		},
	})
	sim.Register(sim.Definition{
		Name:     "panicsim",
		Parallel: true,
		New: func(cfg any, env sim.Env) (sim.Backend, error) {
			return &panicBackend{LGS: backend.NewLGS(backend.AIParams()), ranks: int64(env.Ranks)}, nil
		},
	})
	sim.Register(sim.Definition{
		Name: "blockpkt",
		New: func(cfg any, env sim.Env) (sim.Backend, error) {
			<-blockGate
			pkt, _ := sim.Lookup("pkt")
			return pkt.New(cfg, env)
		},
	})
	sim.Register(sim.Definition{
		Name:     "ordersim",
		Parallel: true,
		New: func(cfg any, env sim.Env) (sim.Backend, error) {
			orderMu.Lock()
			orderSeen = append(orderSeen, env.Seed)
			orderMu.Unlock()
			return backend.NewLGS(backend.AIParams()), nil
		},
	})
}

// panicBackend is LGS until the first calc beyond one per rank, which
// panics. Each rank's first calc is issued while the scheduler seeds the
// run; later ones come from completion handlers on the engine's lanes, so
// on the lane engine the panic is raised on a worker goroutine.
type panicBackend struct {
	*backend.LGS
	ranks int64
	calcs atomic.Int64
}

func (b *panicBackend) Calc(ev sim.CalcEvent) {
	if b.calcs.Add(1) > b.ranks {
		panic(fmt.Sprintf("panicsim: rank %d calc", ev.Rank))
	}
	b.LGS.Calc(ev)
}

// countSpec builds a countsim spec whose fingerprint varies with tag.
func countSpec(tag int64) sim.Spec {
	return sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "bsp", Ranks: 4, Bytes: 1024 + tag, Phases: 2}},
		Backend: "countsim"}
}

// specRunID is the run id Submit files spec under.
func specRunID(t *testing.T, spec sim.Spec) string {
	t.Helper()
	fp, err := sim.Fingerprint(spec)
	if err != nil {
		t.Fatal(err)
	}
	return runID(fp)
}

// gatedSpec is a countsim spec whose resolution blocks in the gated
// generator; its fingerprint varies with tag.
func gatedSpec(tag int64) sim.Spec {
	return sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "gated", Ranks: 4, Bytes: 1024 + tag}},
		Backend: "countsim"}
}

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func submitAndWait(t *testing.T, svc *Service, spec sim.Spec) Snapshot {
	t.Helper()
	snap, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done, err := svc.Wait(ctx, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	done.Cached = snap.Cached
	return done
}

// TestSubmitCachesIdenticalSpecs is the subsystem's headline property:
// submitting the same spec twice performs exactly one simulation, and the
// second submission returns the cached result with a byte-identical
// artifact.
func TestSubmitCachesIdenticalSpecs(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	spec := countSpec(1000)
	before := simCount.Load()

	first := submitAndWait(t, svc, spec)
	if first.Status != StatusDone || first.Cached {
		t.Fatalf("first submission: %+v", first)
	}
	if first.Result == nil || len(first.Artifact) == 0 {
		t.Fatal("first submission finished without result or artifact")
	}
	if got := simCount.Load() - before; got != 1 {
		t.Fatalf("first submission ran %d simulations", got)
	}

	second, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Status != StatusDone {
		t.Fatalf("second submission not served from cache: %+v", second)
	}
	if second.ID != first.ID {
		t.Fatalf("content address changed: %s vs %s", second.ID, first.ID)
	}
	if !bytes.Equal(first.Artifact, second.Artifact) {
		t.Fatal("cached artifact is not byte-identical")
	}
	if !reflect.DeepEqual(first.Result, second.Result) {
		t.Fatal("cached result differs")
	}
	if got := simCount.Load() - before; got != 1 {
		t.Fatalf("two identical submissions ran %d simulations, want exactly 1", got)
	}

	// A result-affecting change must miss the cache.
	other := submitAndWait(t, svc, countSpec(1001))
	if other.Cached || other.ID == first.ID {
		t.Fatalf("different spec was served from cache: %+v", other)
	}
	if got := simCount.Load() - before; got != 2 {
		t.Fatalf("expected 2 distinct simulations, got %d", got)
	}
}

// TestConcurrentDuplicatesSingleFlight: a duplicate submitted while the
// first is still in flight joins that run instead of simulating twice.
func TestConcurrentDuplicatesSingleFlight(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	spec := sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: 2048}},
		Backend: "blocksim"}
	first, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatalf("first submission cached: %+v", first)
	}
	dup, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Cached || dup.ID != first.ID {
		t.Fatalf("in-flight duplicate not joined: %+v", dup)
	}
	if dup.Status.Terminal() {
		t.Fatalf("duplicate claims a result before the run finished: %+v", dup)
	}
	blockGate <- struct{}{} // release exactly the one blocked factory call
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done, err := svc.Wait(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone {
		t.Fatalf("run did not finish: %+v", done)
	}
}

// TestQueueBound: past the configured backlog, Submit fails fast with
// ErrQueueFull instead of queueing unboundedly.
func TestQueueBound(t *testing.T) {
	svc := newService(t, Config{Jobs: 1, Queue: 1})
	blocked := sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: 4096}},
		Backend: "blocksim"}
	first, err := svc.Submit(blocked)
	if err != nil {
		t.Fatal(err)
	}
	// The executor slot is busy (blocked in the factory); wait until the
	// job has actually left the queue so the next submission occupies it.
	waitRunning(t, svc, first.ID)
	second := sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: 8192}},
		Backend: "blocksim"}
	if _, err := svc.Submit(second); err != nil {
		t.Fatalf("queue depth 1 rejected its first queued job: %v", err)
	}
	third := sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: 16384}},
		Backend: "blocksim"}
	if _, err := svc.Submit(third); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull queue: %v, want ErrQueueFull", err)
	}
	blockGate <- struct{}{}
	blockGate <- struct{}{}
	for _, id := range []string{first.ID} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := svc.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
}

// TestEventStream: a subscriber attached before the run executes sees
// started first and the terminal event last; a subscriber attached after
// completion still receives the terminal event.
func TestEventStream(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	spec := sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "bsp", Ranks: 4, Bytes: 1024, Phases: 2}},
		Backend:       "blocksim",
		ProgressEvery: 5}
	snap, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	sub, ok := svc.Subscribe(snap.ID)
	if !ok {
		t.Fatal("cannot subscribe to a queued run")
	}
	blockGate <- struct{}{}
	var evs []Event
	for ev := range sub.C {
		evs = append(evs, ev)
	}
	if len(evs) < 2 {
		t.Fatalf("only %d events", len(evs))
	}
	if evs[0].Type != EventStarted {
		t.Fatalf("first event %q, want %q", evs[0].Type, EventStarted)
	}
	last := evs[len(evs)-1]
	if last.Type != EventDone {
		t.Fatalf("last event %q, want %q", last.Type, EventDone)
	}
	var sawProgress bool
	for _, ev := range evs[1 : len(evs)-1] {
		if ev.Type == EventProgress {
			sawProgress = true
		}
		if ev.Run != snap.ID {
			t.Fatalf("event for run %q on %q's stream", ev.Run, snap.ID)
		}
	}
	if !sawProgress {
		t.Fatal("no progress events despite ProgressEvery")
	}

	late, ok := svc.Subscribe(snap.ID)
	if !ok {
		t.Fatal("cannot subscribe to a finished run")
	}
	ev, open := <-late.C
	if !open || ev.Type != EventDone {
		t.Fatalf("late subscriber got (%+v, %v), want the terminal event", ev, open)
	}
	if _, open := <-late.C; open {
		t.Fatal("late subscription did not close after the terminal event")
	}
}

// TestEventStreamNetStats: a packet-level run's stream carries exactly one
// "netstats" event, immediately before "done", holding Result.Net's
// counters.
func TestEventStreamNetStats(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	snap, err := svc.Submit(sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "alltoall", Ranks: 8, Bytes: 4096}},
		Backend: "blockpkt"})
	if err != nil {
		t.Fatal(err)
	}
	sub, ok := svc.Subscribe(snap.ID)
	if !ok {
		t.Fatal("cannot subscribe to a queued run")
	}
	blockGate <- struct{}{}
	var evs []Event
	for ev := range sub.C {
		evs = append(evs, ev)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done, err := svc.Wait(ctx, snap.ID)
	if err != nil || done.Status != StatusDone || done.Result.Net == nil {
		t.Fatalf("pkt run: %+v, %v", done, err)
	}
	var at []int
	for i, ev := range evs {
		if ev.Type == EventNetStats {
			at = append(at, i)
		}
	}
	n := len(evs)
	if len(at) != 1 || at[0] != n-2 || evs[n-1].Type != EventDone {
		t.Fatalf("netstats at %v of %d events (last %q), want exactly one, just before done", at, n, evs[n-1].Type)
	}
	ns := done.Result.Net
	want := JSONNet{PktsSent: ns.PktsSent, Drops: ns.Drops, Trims: ns.Trims, Retransmits: ns.Retransmits}
	if got := evs[at[0]].Data; got != want || want.PktsSent == 0 {
		t.Fatalf("netstats event %+v, want Result.Net's %+v", got, want)
	}
}

// TestArtifactStore: with an ArtifactDir the run's sweep is persisted at
// <dir>/<id>.json, byte for byte the in-memory artifact, and decodes to
// the run's sweep.
func TestArtifactStore(t *testing.T) {
	dir := t.TempDir()
	svc := newService(t, Config{Jobs: 1, ArtifactDir: dir})
	snap := submitAndWait(t, svc, countSpec(2000))
	if snap.Status != StatusDone {
		t.Fatalf("run failed: %+v", snap)
	}
	stored, err := os.ReadFile(svc.store.Path(snap.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, snap.Artifact) {
		t.Fatal("persisted artifact differs from the served one")
	}
	sweep, err := results.DecodeJSON(bytes.NewReader(stored))
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Name != snap.ID || len(sweep.Rows) != snap.Result.Ranks {
		t.Fatalf("stored sweep %q has %d rows, want %q with %d", sweep.Name, len(sweep.Rows), snap.ID, snap.Result.Ranks)
	}
}

// TestCacheEviction: past the Cache bound the oldest completed run loses
// its address, and resubmitting it simulates again.
func TestCacheEviction(t *testing.T) {
	svc := newService(t, Config{Jobs: 1, Cache: 1})
	before := simCount.Load()
	first := submitAndWait(t, svc, countSpec(3000))
	_ = submitAndWait(t, svc, countSpec(3001))
	if _, ok := svc.Get(first.ID); ok {
		t.Fatal("oldest run survived a Cache=1 bound")
	}
	re := submitAndWait(t, svc, countSpec(3000))
	if re.Cached {
		t.Fatal("evicted run served from cache")
	}
	if got := simCount.Load() - before; got != 3 {
		t.Fatalf("ran %d simulations, want 3 (evicted entry re-simulated)", got)
	}
}

// TestFileBackedSpecsRedigestContent: the lookaside fast path must never
// apply to file-backed specs — when the file's contents change under the
// same path, a re-submission is a new simulation, not a cache hit.
func TestFileBackedSpecsRedigestContent(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	dir := t.TempDir()
	path := dir + "/work.goal"
	write := func(ranks int) {
		t.Helper()
		var buf bytes.Buffer
		if err := sim.WriteGOALText(&buf, sim.NewBuilder(ranks).MustBuild()); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(2)
	spec := sim.Spec{Workload: sim.Workload{GoalPath: path},
		Backend: "countsim"}
	before := simCount.Load()
	first := submitAndWait(t, svc, spec)
	if first.Status != StatusDone {
		t.Fatalf("first run: %+v", first)
	}
	write(3) // same path, different workload
	second := submitAndWait(t, svc, spec)
	if second.Cached || second.ID == first.ID {
		t.Fatalf("changed file served from cache: %+v vs %+v", second, first)
	}
	if second.Result.Ranks != 3 {
		t.Fatalf("second run simulated %d ranks, want the new file's 3", second.Result.Ranks)
	}
	if got := simCount.Load() - before; got != 2 {
		t.Fatalf("ran %d simulations, want 2", got)
	}
}

// TestLookasideIgnoresExecutionKnobs: a self-contained re-submission with
// a different worker request is still the same run.
func TestLookasideIgnoresExecutionKnobs(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	spec := countSpec(5000)
	first := submitAndWait(t, svc, spec)
	spec.Workers = -1
	spec.ProgressEvery = 99
	again, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.ID != first.ID {
		t.Fatalf("worker knob broke the content address: %+v vs %+v", again, first)
	}
}

// TestServiceRunsEveryJobSerially: New refuses a Workers other than 0 or
// 1, and a spec asking for lanes (-1, "as many as allowed", or 4) runs
// on the serial engine, whatever GOMAXPROCS reads.
func TestServiceRunsEveryJobSerially(t *testing.T) {
	for _, w := range []int{-1, 2, 8} {
		if _, err := New(Config{Workers: w}); err == nil || !strings.Contains(err.Error(), "Workers") {
			t.Fatalf("New(Config{Workers: %d}) = %v, want a refusal", w, err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	svc := newService(t, Config{Jobs: 1, Workers: 1})
	for _, w := range []int{-1, 4} {
		done := submitAndWait(t, svc, sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: 1000 + int64(w)}},
			Workers: w})
		if done.Status != StatusDone || done.Result.Parallel || done.Result.Workers != 1 {
			t.Fatalf("spec at Workers %d ran %+v, want a serial run", w, done.Result)
		}
	}
}

func TestSubmitRejects(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	if _, err := svc.Submit(sim.Spec{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := svc.Submit(sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 2}},
		Observer: sim.NopObserver{}}); err == nil {
		t.Fatal("spec with an Observer accepted")
	}
}

// TestFailedRunReportsError: a spec whose workload cannot resolve at run
// time (Validate cannot see file contents) terminates as failed with the
// error preserved, and is still addressable.
func TestFailedRunReportsError(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	// The fingerprint resolves the workload, so a nonexistent path fails at
	// Submit...
	if _, err := svc.Submit(sim.Spec{Workload: sim.Workload{GoalPath: t.TempDir() + "/missing.goal"}}); err == nil {
		t.Fatal("unresolvable workload accepted")
	}
	// ...while a config the factory rejects only fails inside the run.
	snap, err := svc.Submit(sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4}},
		Backend: "pkt",
		Config:  sim.PktConfig{HostsPerToR: 4, Oversub: 8}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done, err := svc.Wait(ctx, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusFailed || done.Err == "" {
		t.Fatalf("broken config produced %+v, want a failed run with its error", done)
	}
	// A failure is not a result: re-submitting the same spec must retry
	// (fresh run, not a cache hit), never replay the stale failure.
	retry, err := svc.Submit(sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4}},
		Backend: "pkt",
		Config:  sim.PktConfig{HostsPerToR: 4, Oversub: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if retry.Cached {
		t.Fatalf("failed run served as a cache hit: %+v", retry)
	}
	again, err := svc.Wait(ctx, retry.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != StatusFailed {
		t.Fatalf("retried run: %+v", again)
	}
}

// TestRunPanicFailsTheRunNotTheDaemon: a backend that panics mid-run fails
// its run — status failed, the panic value in the error, the stack in the
// "run failed" log line, counted as a failed run — and the executor serves
// the next submission.
func TestRunPanicFailsTheRunNotTheDaemon(t *testing.T) {
	var logs bytes.Buffer
	svc := newService(t, Config{Jobs: 1, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	done := submitAndWait(t, svc, sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "bsp", Ranks: 8, Bytes: 1024, Phases: 2}},
		Backend: "panicsim"})
	if done.Status != StatusFailed || !strings.Contains(done.Err, "service: run panicked: panicsim: rank") {
		t.Fatalf("panicking run ended %+v, want failed with the panic value", done)
	}
	log := logs.String()
	if !strings.Contains(log, "run failed") || !strings.Contains(log, "stack=") || !strings.Contains(log, "panicBackend") {
		t.Fatalf("the run-failed log line carries no stack through panicBackend:\n%s", log)
	}
	if got := svc.metrics.runsFailed.Value(); got != 1 {
		t.Fatalf("%d failed runs counted, want 1", got)
	}
	if next := submitAndWait(t, svc, countSpec(5000)); next.Status != StatusDone {
		t.Fatalf("the submission after the panic ended %+v", next)
	}
}

// TestTerminalRunDropsSpec: once a run is terminal it no longer pins its
// spec (and the resolved schedule in it), whether it finished or failed.
func TestTerminalRunDropsSpec(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	for _, spec := range []sim.Spec{
		countSpec(6000),
		{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4}},
			Backend: "pkt", Config: sim.PktConfig{HostsPerToR: 4, Oversub: 8}},
	} {
		done := submitAndWait(t, svc, spec)
		svc.mu.Lock()
		r := svc.runs[done.ID]
		svc.mu.Unlock()
		if !reflect.ValueOf(r.spec).IsZero() {
			t.Fatalf("%s run %s still holds its spec", done.Status, done.ID)
		}
	}
}

// TestCloseDrains: Close terminates every admitted run.
func TestCloseDrains(t *testing.T) {
	svc, err := New(Config{Jobs: 1, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Submit(countSpec(4000))
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	done, ok := svc.Get(snap.ID)
	if !ok {
		t.Fatal("run vanished on Close")
	}
	if !done.Status.Terminal() {
		t.Fatalf("run left in state %s after Close", done.Status)
	}
	if _, err := svc.Submit(countSpec(4001)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
}

// TestRestartRebuildsCache is the tentpole's acceptance test: a service
// restarted over the same artifact directory answers an identical
// re-submission from the rebuilt run index — cache hit, byte-identical
// artifact, equal result, and no simulation executed.
func TestRestartRebuildsCache(t *testing.T) {
	dir := t.TempDir()
	spec := countSpec(7000)
	before := simCount.Load()

	svc, err := New(Config{Jobs: 1, ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first := submitAndWait(t, svc, spec)
	if first.Status != StatusDone {
		t.Fatalf("first run: %+v", first)
	}
	svc.Close()

	svc2 := newService(t, Config{Jobs: 1, ArtifactDir: dir})
	// The restored run must be addressable before any re-submission.
	got, ok := svc2.Get(first.ID)
	if !ok || got.Status != StatusDone {
		t.Fatalf("restarted service lost run %s: (%+v, %v)", first.ID, got, ok)
	}
	again, err := svc2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Status != StatusDone || again.ID != first.ID {
		t.Fatalf("re-submission after restart not served from cache: %+v", again)
	}
	if !bytes.Equal(first.Artifact, again.Artifact) {
		t.Fatal("restored artifact is not byte-identical")
	}
	if !reflect.DeepEqual(first.Result, again.Result) {
		t.Fatalf("restored result differs:\n%+v\nvs\n%+v", first.Result, again.Result)
	}
	if got := simCount.Load() - before; got != 1 {
		t.Fatalf("restart + re-submission ran %d simulations, want exactly 1", got)
	}
}

// TestRestartSkipsCorruptArtifacts: a stored artifact that fails
// validation — corrupt bytes, a corrupt or missing metadata sidecar — is skipped
// with a logged warning, never trusted: the run is not addressable after
// the restart and an identical re-submission simulates again.
func TestRestartSkipsCorruptArtifacts(t *testing.T) {
	dir := t.TempDir()
	spec := countSpec(7100)
	svc, err := New(Config{Jobs: 1, ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	snap := submitAndWait(t, svc, spec)
	if snap.Status != StatusDone {
		t.Fatalf("seed run: %+v", snap)
	}
	svc.Close()

	// Corrupt the artifact itself.
	if err := os.WriteFile(svc.store.Path(snap.ID), []byte(`{"schema":"broken`), 0o644); err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	svc2 := newService(t, Config{Jobs: 1, ArtifactDir: dir, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if _, ok := svc2.Get(snap.ID); ok {
		t.Fatal("corrupt artifact was restored into the run index")
	}
	// slog renders the run id as its own attr, so assert msg and id
	// separately.
	if !strings.Contains(logs.String(), "skipping stored run") || !strings.Contains(logs.String(), snap.ID) {
		t.Fatalf("no skip warning logged; log output:\n%s", logs.String())
	}
	before := simCount.Load()
	re := submitAndWait(t, svc2, spec)
	if re.Cached || re.Status != StatusDone {
		t.Fatalf("corrupt entry answered from cache: %+v", re)
	}
	if got := simCount.Load() - before; got != 1 {
		t.Fatalf("re-submission over a corrupt artifact ran %d simulations, want 1", got)
	}
	svc2.Close()

	// So is a sidecar that is not exactly one valid atlahs.runmeta/v1
	// document: restoring it would leave GET /v1/runs/{id}/metrics
	// answering 200 with an empty body once EncodeMetricsJSON refuses the
	// snapshot.
	metaPath := filepath.Join(dir, "meta", snap.ID+".json")
	good, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	// A sidecar that decodes but disagrees with its artifact would serve a
	// result the artifact does not hold.
	// replaceFirst rewrites the number of re's first match (its last
	// submatch) to 1: the result's own Ops, not Sched's after it.
	replaceFirst := func(re string) []byte {
		loc := regexp.MustCompile(re).FindSubmatchIndex(good)
		if loc == nil {
			return good
		}
		n := len(loc)
		return append(append(append([]byte(nil), good[:loc[n-2]]...), '1'), good[loc[n-1]:]...)
	}
	for name, bad := range map[string][]byte{
		"metric of unknown type": bytes.Replace(good, []byte(`"type": "counter"`), []byte(`"type": "bogus"`), 1),
		"trailing garbage":       append(append([]byte(nil), good...), "garbage"...),
		"ops rewritten to 1":     replaceFirst(`"Ops": ([0-9]+)`),
		"a rank end changed":     replaceFirst(`"RankEnd": \[\s*([0-9]+)`),
	} {
		if bytes.Equal(bad, good) {
			t.Fatalf("%s: the corruption did not apply", name)
		}
		if err := os.WriteFile(metaPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		svcN := newService(t, Config{Jobs: 1, ArtifactDir: dir})
		if _, ok := svcN.Get(snap.ID); ok {
			t.Fatalf("%s: the sidecar was restored into the run index", name)
		}
		svcN.Close()
	}

	// An artifact without its sidecar is equally untrusted.
	if err := os.Remove(filepath.Join(dir, "meta", snap.ID+".json")); err != nil {
		t.Fatal(err)
	}
	logs.Reset()
	svc3 := newService(t, Config{Jobs: 1, ArtifactDir: dir, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if _, ok := svc3.Get(snap.ID); ok {
		t.Fatal("artifact without a sidecar was restored into the run index")
	}
	if !strings.Contains(logs.String(), "metadata sidecar") {
		t.Fatalf("skip warning does not name the missing sidecar; log output:\n%s", logs.String())
	}
}

// TestSidecarEncodingPinned: the run-index sidecar is written byte for
// byte as pinned, so a codec rewrite keeps what a restarted service reads.
func TestSidecarEncodingPinned(t *testing.T) {
	svc := newService(t, Config{Jobs: 1, ArtifactDir: t.TempDir()})
	r, res := sidecarFixture()
	if err := svc.saveMeta(r, res); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(svc.store.MetaPath(r.id))
	if err != nil {
		t.Fatal(err)
	}
	const pin = "a7225edb1bb86a11800f95be803efeba818d3c0b47ffa21914ba1c02bdc19902"
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != pin {
		t.Errorf("sidecar SHA-256 %x, pinned %s", sum, pin)
	}
}

// sidecarFixture is a finished run and its result, with every part the
// sidecar carries set.
func sidecarFixture() (*run, *sim.Result) {
	r := &run{id: "r_0123456789abcdef", fp: "0123456789abcdef" + strings.Repeat("e", 48), lookKeys: []string{"k_one", "k_two"}}
	res := &sim.Result{
		Runtime: 12345,
		RankEnd: []sim.Time{12000, 12345},
		Ops:     8,
		Events:  21,
		Backend: "lgs",
		Ranks:   2,
		Done:    sim.Tally{Calcs: 2, Sends: 3, Recvs: 3},
		Workers: 1,
		Net:     &sim.NetStats{},
		Metrics: results.NewMetricsSnapshot([]results.Metric{{Name: "atlahs_engine_events_total", Type: "counter", Help: "events <&>", Value: 21}}),
		Wall:    1500,
	}
	return r, res
}

// FuzzRestoreRun feeds restoreRun the artifact directory a crash can
// leave: any sidecar and artifact bytes for one run id. It never panics,
// and a run it accepts is one whose result re-encodes to exactly the
// artifact it was given, which is also what it serves.
func FuzzRestoreRun(f *testing.F) {
	st, err := results.NewStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	svc := &Service{store: st}
	r, res := sidecarFixture()
	if err := svc.saveMeta(r, res); err != nil {
		f.Fatal(err)
	}
	meta, err := os.ReadFile(st.MetaPath(r.id))
	if err != nil {
		f.Fatal(err)
	}
	var artifact bytes.Buffer
	if err := results.EncodeJSON(&artifact, runSweep(r.id, res)); err != nil {
		f.Fatal(err)
	}
	if err := os.WriteFile(st.Path(r.id), artifact.Bytes(), 0o644); err != nil {
		f.Fatal(err)
	}
	if _, err := svc.restoreRun(r.id); err != nil {
		f.Fatalf("the seed run is not restored: %v", err)
	}
	f.Add(meta, artifact.Bytes())
	f.Fuzz(func(t *testing.T, meta, artifact []byte) {
		if err := os.WriteFile(st.MetaPath(r.id), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.Path(r.id), artifact, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := svc.restoreRun(r.id)
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := results.EncodeJSON(&again, runSweep(got.id, got.result)); err != nil {
			t.Fatalf("restored result does not encode: %v", err)
		}
		if !bytes.Equal(again.Bytes(), artifact) || !bytes.Equal(got.artifact, artifact) {
			t.Fatalf("restored run re-encodes to\n%s\nserves\n%s\nfrom artifact\n%s", again.Bytes(), got.artifact, artifact)
		}
	})
}

// TestWaitCancelledContext pins Wait's ordering guarantee: a finished run
// returns its snapshot even on an already-cancelled context, while a run
// still in flight returns the context's error.
func TestWaitCancelledContext(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	finished := submitAndWait(t, svc, countSpec(7200))

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	snap, err := svc.Wait(cancelled, finished.ID)
	if err != nil {
		t.Fatalf("Wait on a finished run with a cancelled context: %v", err)
	}
	if snap.Status != StatusDone {
		t.Fatalf("finished run reported %+v", snap)
	}

	inflight, err := svc.Submit(sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: 7201}},
		Backend: "blocksim"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(cancelled, inflight.ID); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on an in-flight run with a cancelled context: %v, want context.Canceled", err)
	}
	blockGate <- struct{}{}
	ctx, cancelLive := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelLive()
	if _, err := svc.Wait(ctx, inflight.ID); err != nil {
		t.Fatal(err)
	}
}

// TestJobQueueFairShare unit-tests the admission queue: classes drain
// round-robin (FIFO within one), pushes are atomic all-or-none against
// the capacity bound, and close drains the backlog before pop reports
// exhaustion.
func TestJobQueueFairShare(t *testing.T) {
	mk := func(id string) *run { return &run{id: id} }
	q := newJobQueue(10)
	if err := q.push("batch", mk("a1"), mk("a2"), mk("a3")); err != nil {
		t.Fatal(err)
	}
	if err := q.push(DefaultClass, mk("b1")); err != nil {
		t.Fatal(err)
	}
	var order []string
	for i := 0; i < 4; i++ {
		r, ok := q.pop()
		if !ok {
			t.Fatalf("queue exhausted after %d pops", i)
		}
		order = append(order, r.id)
	}
	if want := []string{"a1", "b1", "a2", "a3"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("drain order %v, want round-robin %v", order, want)
	}

	q2 := newJobQueue(2)
	if err := q2.push("c", mk("x1"), mk("x2"), mk("x3")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("oversized atomic push: %v, want ErrQueueFull", err)
	}
	if err := q2.push("c", mk("x1"), mk("x2")); err != nil {
		t.Fatalf("the rejected push left residue: %v", err)
	}
	if err := q2.push("d", mk("y1")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("push past capacity: %v, want ErrQueueFull", err)
	}
	if _, ok := q2.pop(); !ok {
		t.Fatal("pop from a full queue failed")
	}
	if err := q2.push("d", mk("y1")); err != nil {
		t.Fatalf("pop did not free capacity: %v", err)
	}

	q2.close()
	if err := q2.push("d", mk("z1")); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: %v, want ErrClosed", err)
	}
	for i := 0; i < 2; i++ {
		if _, ok := q2.pop(); !ok {
			t.Fatalf("close dropped queued job %d before it drained", i)
		}
	}
	if _, ok := q2.pop(); ok {
		t.Fatal("pop after the backlog drained on a closed queue")
	}
}

// TestFairShareAcrossClasses drives the class plumbing end-to-end: with
// one executor slot held, a queued three-spec sweep and a later
// interactive submission interleave round-robin — the interactive run
// executes after the sweep's first member, not after its last.
func TestFairShareAcrossClasses(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	hold, err := svc.Submit(sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: 7300}},
		Backend: "blocksim"})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, svc, hold.ID)
	oseed := func(seed uint64) sim.Spec {
		return sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "bsp", Ranks: 4, Bytes: 512, Phases: 2}},
			Backend: "ordersim",
			Seed:    seed}
	}
	orderMu.Lock()
	start := len(orderSeen)
	orderMu.Unlock()
	batch, err := svc.SubmitSweep("", []sim.Spec{oseed(1), oseed(2), oseed(3)})
	if err != nil {
		t.Fatal(err)
	}
	interactive, err := svc.Submit(oseed(100))
	if err != nil {
		t.Fatal(err)
	}
	blockGate <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := svc.WaitSweep(ctx, batch.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(ctx, interactive.ID); err != nil {
		t.Fatal(err)
	}
	orderMu.Lock()
	got := append([]uint64(nil), orderSeen[start:]...)
	orderMu.Unlock()
	if want := []uint64{1, 100, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("execution order %v, want fair-share interleaving %v", got, want)
	}
}

// TestSubmitSweepDedup: one sweep's duplicate specs collapse onto one run,
// the whole batch is addressable by a content-derived id, and
// re-submitting the identical sweep (same batch id) answers every member
// from the cache without simulating.
func TestSubmitSweepDedup(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	specs := []sim.Spec{countSpec(7400), countSpec(7401), countSpec(7400)}
	before := simCount.Load()

	batch, err := svc.SubmitSweep("", specs)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Specs != 3 || len(batch.Runs) != 2 {
		t.Fatalf("3 specs with one duplicate admitted as %d specs / %d runs", batch.Specs, len(batch.Runs))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := svc.WaitSweep(ctx, batch.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Done != 2 || final.Failed != 0 || !final.Terminal() {
		t.Fatalf("finished sweep: %+v", final)
	}
	if got := simCount.Load() - before; got != 2 {
		t.Fatalf("sweep ran %d simulations, want 2", got)
	}

	again, err := svc.SubmitSweep("", specs)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != batch.ID {
		t.Fatalf("identical sweep re-derived batch id %s, want %s", again.ID, batch.ID)
	}
	if again.Cached != 2 || again.Done != 2 {
		t.Fatalf("re-submitted sweep not served from cache: %+v", again)
	}
	if got := simCount.Load() - before; got != 2 {
		t.Fatalf("re-submitted sweep simulated again (%d total)", got)
	}
	view, ok := svc.GetSweep(batch.ID)
	if !ok || view.Done != 2 || view.Specs != 3 {
		t.Fatalf("GetSweep: (%+v, %v)", view, ok)
	}
	if _, ok := svc.GetSweep("b_0000000000000000"); ok {
		t.Fatal("unknown sweep id resolved")
	}
}

// TestSubmitSweepQueueFullAtomic: a sweep that does not fit the admission
// queue is rejected whole — no member run is admitted, so a retry is not
// half-deduplicated against a phantom partial batch.
func TestSubmitSweepQueueFullAtomic(t *testing.T) {
	svc := newService(t, Config{Jobs: 1, Queue: 1})
	hold, err := svc.Submit(sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: 7500}},
		Backend: "blocksim"})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, svc, hold.ID)
	specs := []sim.Spec{countSpec(7501), countSpec(7502)}
	if _, err := svc.SubmitSweep("", specs); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("two-spec sweep into a one-slot queue: %v, want ErrQueueFull", err)
	}
	for _, spec := range specs {
		id := specRunID(t, spec)
		if _, ok := svc.Get(id); ok {
			t.Fatalf("rejected sweep left member %s admitted", id)
		}
	}
	batch, err := svc.SubmitSweep("", specs[:1])
	if err != nil {
		t.Fatalf("one-spec sweep after the rejection: %v", err)
	}
	blockGate <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := svc.WaitSweep(ctx, batch.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Done != 1 {
		t.Fatalf("retried sweep: %+v", final)
	}
}

package sim

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"atlahs/internal/core"
	"atlahs/internal/goal"
	"atlahs/internal/simtime"
	"atlahs/internal/workload/micro"
)

func TestSpecRequiresExactlyOneWorkload(t *testing.T) {
	if _, err := Run(context.Background(), Spec{}); err == nil ||
		!strings.Contains(err.Error(), "no workload") {
		t.Fatalf("empty spec: %v", err)
	}
	_, err := Run(context.Background(), Spec{Workload: Workload{Schedule: micro.Ring(2, 64), Synthetic: &Synthetic{Pattern: "ring", Ranks: 2, Bytes: 64}}})
	if err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Fatalf("two sources: %v", err)
	}
}

// TestWorkloadSourcesAgree: the same schedule through all four sources
// must produce the same result.
func TestWorkloadSourcesAgree(t *testing.T) {
	s := micro.Ring(8, 4096)
	var bin, txt bytes.Buffer
	if err := goal.WriteBinary(&bin, s); err != nil {
		t.Fatal(err)
	}
	if err := goal.WriteText(&txt, s); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	binPath := filepath.Join(dir, "ring.bin")
	if err := os.WriteFile(binPath, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	want, err := Run(context.Background(), Spec{Workload: Workload{Schedule: s}})
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]Spec{
		"goal-bytes-binary": {Workload: Workload{GoalBytes: bin.Bytes()}},
		"goal-bytes-text":   {Workload: Workload{GoalBytes: txt.Bytes()}},
		"goal-path":         {Workload: Workload{GoalPath: binPath}},
		"synthetic":         {Workload: Workload{Synthetic: &Synthetic{Pattern: "ring", Ranks: 8, Bytes: 4096}}},
	} {
		got, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Runtime != want.Runtime || got.Ops != want.Ops {
			t.Fatalf("%s: (%v, %d ops), want (%v, %d ops)", name, got.Runtime, got.Ops, want.Runtime, want.Ops)
		}
	}
}

func TestSyntheticPatterns(t *testing.T) {
	for _, pattern := range Generators() {
		res, err := Run(context.Background(), Spec{Workload: Workload{Synthetic: &Synthetic{Pattern: pattern, Ranks: 6, Bytes: 1024}},
			Seed: 9})
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		if res.Ops == 0 {
			t.Fatalf("%s: no ops executed", pattern)
		}
	}
	if _, err := Run(context.Background(), Spec{Workload: Workload{Synthetic: &Synthetic{Pattern: "nope", Ranks: 4}}}); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown pattern: %v", err)
	}
}

// TestRunEngineSelection pins the one engine-selection rule, which lives
// in Run: whatever the worker request — GOMAXPROCS (-1), serial (0, 1) or
// a pool — the result is bit-identical to the serial run; the lane engine
// is used exactly when more than one worker is asked of a backend with a
// positive lookahead on more than one rank; and a request it cannot honour
// for want of a lookahead window (LogGOPS with L = 0) or of ranks runs
// serially and says so in the Result.
func TestRunEngineSelection(t *testing.T) {
	same := func(label string, got, want *Result) {
		t.Helper()
		if got.Runtime != want.Runtime || got.Ops != want.Ops || got.Events != want.Events ||
			!reflect.DeepEqual(got.RankEnd, want.RankEnd) {
			t.Fatalf("%s: (%v, %d ops, %d events) differs from serial (%v, %d ops, %d events)",
				label, got.Runtime, got.Ops, got.Events, want.Runtime, want.Ops, want.Events)
		}
	}
	zeroL := AIParams()
	zeroL.L = 0
	for _, tc := range []struct {
		name     string
		spec     Spec
		sharding bool // may this spec run on the lane engine at all
	}{
		{"lgs", Spec{Workload: Workload{Schedule: micro.BulkSynchronous(10, 4, 16384, 1500)}}, true},
		{"zero-lookahead", Spec{Workload: Workload{Schedule: micro.Ring(8, 1024)}, Config: LGSConfig{Params: zeroL}}, false},
		{"one-rank", Spec{Workload: Workload{Synthetic: &Synthetic{Pattern: "bsp", Ranks: 1, Bytes: 64}}}, false},
	} {
		serial, err := Run(context.Background(), tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, workers := range []int{-1, 0, 1, 3, 8} {
			spec := tc.spec
			spec.Workers = workers
			got, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			same(fmt.Sprintf("%s workers=%d", tc.name, workers), got, serial)
			wantWorkers := 1
			if tc.sharding {
				wantWorkers = resolveWorkers(workers)
			}
			if got.Workers != wantWorkers || got.Parallel != (wantWorkers > 1) {
				t.Fatalf("%s workers=%d: ran with workers=%d parallel=%v, want workers=%d",
					tc.name, workers, got.Workers, got.Parallel, wantWorkers)
			}
		}
	}
}

func TestWorkersRejectedForSharedFabricBackends(t *testing.T) {
	for _, name := range []string{"pkt", "fluid"} {
		_, err := Run(context.Background(), Spec{Workload: Workload{Schedule: micro.Ring(4, 1024)},
			Backend: name,
			Workers: 4})
		if err == nil {
			t.Fatalf("%s with Workers=4: expected rejection, not a silent serial fallback", name)
		}
		if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "parallel") {
			t.Fatalf("%s rejection %q should name the backend and the parallel engine", name, err)
		}
	}
}

func TestOversubscriptionBeyondToRRadixErrors(t *testing.T) {
	_, err := Run(context.Background(), Spec{Workload: Workload{Schedule: micro.Ring(4, 1024)},
		Backend: "pkt",
		Config:  PktConfig{HostsPerToR: 4, Oversub: 8}})
	if err == nil || !strings.Contains(err.Error(), "oversubscription") {
		t.Fatalf("oversub 8 with 4 hosts/ToR: %v, want an oversubscription error, not a clamp", err)
	}
}

// recordingObserver records callbacks.
type recordingObserver struct {
	started  []RunInfo
	ops      []OpEvent
	progress []ProgressEvent
}

func (r *recordingObserver) RunStarted(info RunInfo)   { r.started = append(r.started, info) }
func (r *recordingObserver) OpCompleted(ev OpEvent)    { r.ops = append(r.ops, ev) }
func (r *recordingObserver) Progress(ev ProgressEvent) { r.progress = append(r.progress, ev) }

func TestObserverStreamsRun(t *testing.T) {
	s := micro.AllToAll(8, 4096)
	obs := &recordingObserver{}
	res, err := Run(context.Background(), Spec{Workload: Workload{Schedule: s},
		Backend:       "pkt",
		Observer:      obs,
		ProgressEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.started) != 1 {
		t.Fatalf("RunStarted fired %d times", len(obs.started))
	}
	info := obs.started[0]
	if info.Backend != "pkt" || info.Stats.Ranks != 8 {
		t.Fatalf("RunInfo %+v", info)
	}
	if int64(len(obs.ops)) != res.Ops {
		t.Fatalf("observed %d op completions, result says %d", len(obs.ops), res.Ops)
	}
	wantProgress := int(res.Ops / 10)
	if len(obs.progress) != wantProgress {
		t.Fatalf("observed %d progress events, want %d", len(obs.progress), wantProgress)
	}
	if res.Net == nil || res.Net.PktsSent == 0 {
		t.Fatalf("pkt run reported fabric counters %+v", res.Net)
	}
	// Kinds must match the schedule's op mix.
	var sends, recvs int64
	for _, ev := range obs.ops {
		switch ev.Kind {
		case OpSend:
			sends++
		case OpRecv:
			recvs++
		}
	}
	st := s.ComputeStats()
	if sends != st.Sends || recvs != st.Recvs {
		t.Fatalf("observed %d sends / %d recvs, schedule has %d / %d", sends, recvs, st.Sends, st.Recvs)
	}
}

// TestObserverDoesNotPerturbResult: runs with and without an observer must
// be bit-identical (at Workers 4 the plain run is on lanes, the observed
// one serial).
func TestObserverDoesNotPerturbResult(t *testing.T) {
	s := micro.BulkSynchronous(8, 4, 16384, 1500)
	plain, err := Run(context.Background(), Spec{Workload: Workload{Schedule: s},
		Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Run(context.Background(), Spec{Workload: Workload{Schedule: s},
		Workers:  4,
		Observer: &recordingObserver{}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Runtime != observed.Runtime || plain.Events != observed.Events {
		t.Fatalf("observer changed the simulation: (%v, %d) vs (%v, %d)",
			observed.Runtime, observed.Events, plain.Runtime, plain.Events)
	}
}

// probed is the backend the "wrap-probe" definition built last.
var probed *instantBackend

// TestRunWrapsOnlyWhenWatched: Run hands the registry's backend to the
// scheduler as it is unless an Observer, a Timeline or a cancellable ctx
// asks for the streaming wrapper, so an unwatched run's completions reach
// the scheduler's own callback directly. Either way the scheduler counts
// every op.
func TestRunWrapsOnlyWhenWatched(t *testing.T) {
	if _, ok := Lookup("wrap-probe"); !ok {
		Register(Definition{Name: "wrap-probe", New: func(any, Env) (core.Backend, error) {
			probed = &instantBackend{}
			return probed, nil
		}})
	}
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		name    string
		ctx     context.Context
		spec    Spec
		wrapped bool
	}{
		{"unwatched", context.Background(), Spec{}, false},
		{"observer", context.Background(), Spec{Observer: NopObserver{}}, true},
		{"timeline", context.Background(), Spec{Timeline: NewTimeline(0)}, true},
		{"cancellable ctx", cancellable, Spec{}, true},
	} {
		c.spec.Workload = Workload{Schedule: micro.Ring(4, 1024)}
		c.spec.Backend = "wrap-probe"
		res, err := Run(c.ctx, c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		over := runtime.FuncForPC(reflect.ValueOf(probed.over).Pointer()).Name()
		if wrapped := !strings.HasPrefix(over, "atlahs/internal/sched."); wrapped != c.wrapped {
			t.Errorf("%s: the backend completes through %s (wrapped %v), want wrapped %v", c.name, over, wrapped, c.wrapped)
		}
		if want := (Tally{Calcs: res.Sched.Calcs, Sends: res.Sched.Sends, Recvs: res.Sched.Recvs}); res.Done != want {
			t.Errorf("%s: Done = %+v, want %+v", c.name, res.Done, want)
		}
	}
}

func TestRunHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Spec{Workload: Workload{Schedule: micro.Ring(4, 1024)}})
	if err != context.Canceled {
		t.Fatalf("pre-cancelled ctx: %v, want context.Canceled", err)
	}
}

// cancelAfter cancels its context after n op completions.
type cancelAfter struct {
	NopObserver
	n      int64
	seen   int64
	cancel context.CancelFunc
}

func (c *cancelAfter) OpCompleted(OpEvent) {
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
}

func TestRunCancelsMidSimulation(t *testing.T) {
	// Enough ops that the 1024-completion ctx poll triggers well before the
	// end: 64 ranks all-to-all is ~8k ops.
	s := micro.AllToAll(64, 1024)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Run(ctx, Spec{Workload: Workload{Schedule: s},
		Observer: &cancelAfter{n: 100, cancel: cancel}})
	if err != context.Canceled {
		t.Fatalf("mid-run cancel: %v, want context.Canceled", err)
	}
}

// TestNoGoroutineLeakOnCancelledRun: a run cancelled mid-simulation
// returns with every goroutine it started gone, at any Workers (a run with
// a cancellable ctx is serial; engine's TestParEngineWorkerPoolExits covers
// the lane engine's pool).
func TestNoGoroutineLeakOnCancelledRun(t *testing.T) {
	s := micro.AllToAll(64, 1024)
	for _, workers := range []int{0, 2} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		_, err := Run(ctx, Spec{Workload: Workload{Schedule: s}, Workers: workers,
			Observer: &cancelAfter{n: 100, cancel: cancel}})
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers %d: mid-run cancel: %v, want context.Canceled", workers, err)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("workers %d: %d goroutines 5 s after the cancelled run, %d before:\n%s", workers, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
		}
	}
}

// TestWatchedRunsAreSerial: a run with an Observer, a Timeline or a
// cancellable ctx runs on the serial engine whatever Workers asks for, and
// simulates exactly what the unwatched run on the lane engine does.
func TestWatchedRunsAreSerial(t *testing.T) {
	spec := Spec{Workload: Workload{Synthetic: &Synthetic{Pattern: "bsp", Ranks: 16, Bytes: 65536, Phases: 3}},
		Backend: "lgs", Workers: 4}
	lanes := runResult(t, spec)
	if !lanes.Parallel || lanes.Workers != 4 {
		t.Fatalf("unwatched run: parallel=%v on %d workers, want the 4-worker lane engine", lanes.Parallel, lanes.Workers)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
		spec Spec
	}{
		{"observer", context.Background(), Spec{Observer: NopObserver{}}},
		{"timeline", context.Background(), Spec{Timeline: NewTimeline(0)}},
		{"cancellable ctx", ctx, Spec{}},
	} {
		watched := spec
		watched.Observer, watched.Timeline = c.spec.Observer, c.spec.Timeline
		res, err := Run(c.ctx, watched)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Parallel || res.Workers != 1 {
			t.Errorf("%s: parallel=%v on %d workers, want serial", c.name, res.Parallel, res.Workers)
		}
		if res.Runtime != lanes.Runtime || !reflect.DeepEqual(res.RankEnd, lanes.RankEnd) || res.Events != lanes.Events || res.Done != lanes.Done {
			t.Errorf("%s: runtime %v, %d events, done %+v; the lane engine's run: %v, %d events, done %+v",
				c.name, res.Runtime, res.Events, res.Done, lanes.Runtime, lanes.Events, lanes.Done)
		}
	}
}

// TestConcurrentRunsShareOneTopology: PktConfig.Topo and FluidConfig.Topo
// let callers (atlahsd jobs, sweep workers) hand one *Topology to several
// runs at once, so a run may read it but never write it — routing state a
// run computes lives in that run's network. CI runs this under -race; the
// runs must also agree, since they are the same simulation.
func TestConcurrentRunsShareOneTopology(t *testing.T) {
	tp, err := FatTree(16, 4, 1, 0, LinkSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]any{"pkt": PktConfig{Topo: tp}, "fluid": FluidConfig{Topo: tp}} {
		spec := Spec{Workload: Workload{Synthetic: &Synthetic{Pattern: "alltoall", Ranks: 16, Bytes: 8192}},
			Backend: name, Config: cfg, Seed: 3}
		var wg sync.WaitGroup
		got := make([]*Result, 4)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := Run(context.Background(), spec)
				if err != nil {
					t.Errorf("%s run %d: %v", name, g, err)
				}
				got[g] = res
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for g, res := range got[1:] {
			if res.Runtime != got[0].Runtime || res.Events != got[0].Events {
				t.Errorf("%s run %d: (%v, %d events), run 0: (%v, %d events)", name, g+1, res.Runtime, res.Events, got[0].Runtime, got[0].Events)
			}
		}
	}
}

// TestOutOfRangeOpsAreErrorsNotPanics: a GOAL file whose one op alone
// carries a backend's picosecond arithmetic past int64 — a send whose size
// times the per-byte gap goes negative, one that wraps to zero and
// "completes" 4 EiB in microseconds, a calc whose ns → ps conversion wraps —
// or whose ops do so summed down one chain, is refused with an error on
// every backend: never a panic out of Engine.Schedule, never a wrapped
// runtime. The sends are over GOAL's 1 TiB message bound, so the decoder
// refuses them; the calcs reach the scheduler, which refuses them.
func TestOutOfRangeOpsAreErrorsNotPanics(t *testing.T) {
	ping := func(size string) string {
		return "num_ranks 2\nrank 0 {\nl1: send " + size + "b to 1 tag 0\n}\nrank 1 {\nl1: recv " + size + "b from 0 tag 0\n}\n"
	}
	chain := "num_ranks 1\nrank 0 {\nl1: calc 4000000000000000\n"
	for i := 2; i <= 4; i++ {
		chain += fmt.Sprintf("l%d: calc 4000000000000000\nl%d requires l%d\n", i, i, i-1)
	}
	chain += "}\n"
	const sizeErr, schedErr = "exceeds the 1099511627776-byte message bound", "sched: "
	for name, tc := range map[string]struct{ text, want string }{
		"send-overflows-negative": {ping("51240955760304320"), sizeErr},
		"send-wraps-to-zero":      {ping("4611686018427387904"), sizeErr},
		"calc-overflows-ns-to-ps": {"num_ranks 1\nrank 0 {\nl1: calc 9223372036854775807\n}\n", schedErr},
		"calc-chain-sums-past":    {chain, schedErr},
	} {
		for _, be := range []string{"lgs", "pkt", "fluid"} {
			spec := Spec{Workload: Workload{GoalBytes: []byte(tc.text)}, Backend: be}
			if be == "lgs" {
				spec.Config = LGSConfig{Params: HPCParams()}
			}
			res, err := Run(context.Background(), spec)
			if err == nil {
				t.Errorf("%s on %s: ran to %v, want an error", name, be, res.Runtime)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s on %s: %v, want an error with %q", name, be, err, tc.want)
			}
		}
	}
	// The largest op each bound admits still runs, to the right answer.
	res, err := Run(context.Background(), Spec{Workload: Workload{GoalBytes: []byte("num_ranks 1\nrank 0 {\nl1: calc 4000000000000000\n}\n")}})
	if err != nil || res.Runtime != 4_000_000_000_000_000*simtime.Nanosecond {
		t.Fatalf("46-day calc: %v, %v", res, err)
	}
	res, err = Run(context.Background(), Spec{Workload: Workload{GoalBytes: []byte(ping("1099511627776"))},
		Config: LGSConfig{Params: HPCParams()}})
	// rendezvous: o + L (RTS) + L (CTS) + size·G + L + o
	if want := (6000+3*3000+6000)*simtime.Nanosecond + 1099511627776*180*simtime.Picosecond; err != nil || res.Runtime != want {
		t.Fatalf("1 TiB send: %v, %v, want %v", res, err, want)
	}
	if _, err := Run(context.Background(), Spec{Workload: Workload{Schedule: micro.Ring(2, 64)}, CalcScale: -1}); err == nil {
		t.Fatal("negative CalcScale accepted")
	}
}

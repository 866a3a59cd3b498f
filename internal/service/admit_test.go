package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"atlahs/internal/workload/micro"
	"atlahs/sim"
)

// waitRunning blocks until the run has left the queue for an executor.
func waitRunning(t *testing.T, svc *Service, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if snap, _ := svc.Get(id); snap.Status == StatusRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never started", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitAndSweepOfOneAgree: a run is a sweep of one. The same script
// of submissions — cold, re-submitted by wire bytes, re-submitted through
// a file (no lookaside key), into a full queue, after Close — is played
// through Submit and through SubmitSweep of a single spec on two fresh
// services, and the two transcripts (run id, Cached, which cache-verdict
// counter moved, which sentinel error came back) must be identical.
func TestSubmitAndSweepOfOneAgree(t *testing.T) {
	var goalFile bytes.Buffer
	if err := sim.WriteGOALBinary(&goalFile, micro.Ring(4, 2048)); err != nil {
		t.Fatal(err)
	}
	goalPath := filepath.Join(t.TempDir(), "ring.goalbin")
	if err := os.WriteFile(goalPath, goalFile.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fileSpec := sim.Spec{Workload: sim.Workload{GoalPath: goalPath}, Backend: "countsim"}
	blockSpec := func(bytes int64) sim.Spec {
		return sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: bytes}},
			Backend: "blocksim"}
	}

	paths := map[string]func(*Service, sim.Spec) (string, bool, error){
		"Submit": func(svc *Service, spec sim.Spec) (string, bool, error) {
			snap, err := svc.Submit(spec)
			return snap.ID, snap.Cached, err
		},
		"SubmitSweep": func(svc *Service, spec sim.Spec) (string, bool, error) {
			b, err := svc.SubmitSweep(DefaultClass, []sim.Spec{spec})
			if err != nil {
				return "", false, err
			}
			if len(b.Runs) != 1 || b.Specs != 1 {
				t.Errorf("sweep of one admitted as %d specs / %d runs", b.Specs, len(b.Runs))
			}
			return b.Runs[0].ID, b.Runs[0].Cached, nil
		},
	}
	transcripts := map[string][]string{}
	for name, submit := range paths {
		svc, err := New(Config{Jobs: 1, Queue: 1})
		if err != nil {
			t.Fatal(err)
		}
		verdicts := func() [3]uint64 {
			m := svc.metrics
			return [3]uint64{m.cacheLookaside.Value(), m.cacheHit.Value(), m.cacheMiss.Value()}
		}
		var script []string
		step := func(label string, spec sim.Spec, wait bool) {
			before := verdicts()
			id, cached, err := submit(svc, spec)
			after := verdicts()
			moved := "none"
			for i, l := range []string{"lookaside", "hit", "miss"} {
				if after[i] != before[i] {
					moved = fmt.Sprintf("%s+%d", l, after[i]-before[i])
				}
			}
			sentinel := "nil"
			switch {
			case errors.Is(err, ErrQueueFull):
				sentinel = "ErrQueueFull"
			case errors.Is(err, ErrClosed):
				sentinel = "ErrClosed"
			case err != nil:
				sentinel = err.Error()
			}
			script = append(script, fmt.Sprintf("%s: id=%s cached=%v verdict=%s err=%s", label, id, cached, moved, sentinel))
			if wait && err == nil {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if _, err := svc.Wait(ctx, id); err != nil {
					t.Fatalf("%s %s: %v", name, label, err)
				}
			}
		}
		step("cold", countSpec(9100), true)
		step("same wire bytes", countSpec(9100), false)
		step("cold file", fileSpec, true)
		step("same file", fileSpec, false)

		hold, err := svc.Submit(blockSpec(9101))
		if err != nil {
			t.Fatal(err)
		}
		waitRunning(t, svc, hold.ID)
		step("fills the queue", blockSpec(9102), false)
		step("past the queue", blockSpec(9103), false)
		step("cached while the queue is full", countSpec(9100), false)
		blockGate <- struct{}{}
		blockGate <- struct{}{}

		svc.Close()
		step("cold after Close", countSpec(9104), false)
		step("cached after Close", countSpec(9100), false)
		transcripts[name] = script
	}
	if !reflect.DeepEqual(transcripts["Submit"], transcripts["SubmitSweep"]) {
		t.Fatalf("Submit and SubmitSweep of one spec disagree:\nSubmit:\n  %s\nSubmitSweep:\n  %s",
			strings.Join(transcripts["Submit"], "\n  "), strings.Join(transcripts["SubmitSweep"], "\n  "))
	}
	want := []string{"verdict=miss+1 err=nil", "cached=true verdict=lookaside+1 err=nil", "verdict=miss+1 err=nil",
		"cached=true verdict=hit+1 err=nil", "verdict=miss+1 err=nil", "verdict=none err=ErrQueueFull",
		"cached=true verdict=lookaside+1 err=nil", "verdict=none err=ErrClosed", "verdict=none err=ErrClosed"}
	for i, line := range transcripts["Submit"] {
		if !strings.Contains(line, want[i]) {
			t.Fatalf("step %d: %q, want it to contain %q", i, line, want[i])
		}
	}
}

// TestSweepSurvivesEvictionDuringAdmission: with Cache: 1 every finished
// run evicts the one before it. Each round re-establishes a cached run,
// then submits a sweep of it plus a batch of cold specs while other
// clients keep finishing cold runs: the cached member is recognised by
// the lookaside probe and, while the cold members resolve, routinely
// evicted before the sweep enqueues. The admission path holds the *run it
// probed, so the sweep is admitted — never rejected for the client to
// retry. Run under -race.
func TestSweepSurvivesEvictionDuringAdmission(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil)) // thousands of runs
	svc := newService(t, Config{Jobs: 2, Cache: 1, Queue: 4096, Logger: quiet})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := svc.Submit(countSpec(int64(20000 + i)))
			if err != nil {
				t.Errorf("churn submit: %v", err)
				return
			}
			// Pace on the run; with Cache: 1 it may already be finished
			// and evicted, which Wait reports as unknown — also a pace.
			svc.Wait(ctx, snap.ID)
		}
	}()
	cached := countSpec(9200)
	probed := uint64(0)
	// At least 60 rounds; past that, keep going until the probe has
	// answered once. On a loaded machine the churn can evict the cached
	// run before every one of the first 60 sweeps probes it. 600 rounds
	// keep the sweeps' seeds (10000+16·round+i) below the churn's.
	for round := 0; round < 60 || (probed == 0 && round < 600); round++ {
		snap, err := svc.Submit(cached)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		svc.Wait(ctx, snap.ID) // paced like the churn
		specs := []sim.Spec{cached}
		for i := 0; i < 16; i++ {
			specs = append(specs, countSpec(int64(10000+16*round+i)))
		}
		before := svc.metrics.cacheLookaside.Value()
		batch, err := svc.SubmitSweep("", specs)
		if err != nil {
			t.Fatalf("round %d: sweep rejected: %v", round, err)
		}
		if len(batch.Runs) != len(specs) {
			t.Fatalf("round %d: sweep admitted %d runs, want %d", round, len(batch.Runs), len(specs))
		}
		probed += svc.metrics.cacheLookaside.Value() - before
	}
	close(stop)
	churn.Wait()
	if probed == 0 {
		t.Fatal("the cached member was never answered by the lookaside probe; the test did not exercise the race")
	}
}

// TestJoinedSubmissionsIndexLookasideKeyOnce: two identical submissions
// resolve at the same time; the first to reach the second phase creates
// the run and the other joins it there. Both file the same lookaside key
// under the run, which must keep it once: the keys are written to the
// run's sidecar as they stand.
func TestJoinedSubmissionsIndexLookasideKeyOnce(t *testing.T) {
	svc := newService(t, Config{Jobs: 2})
	spec := gatedSpec(9400)
	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap, err := svc.Submit(spec)
			if err != nil {
				t.Errorf("submission %d: %v", i, err)
			}
			ids[i] = snap.ID
		}()
	}
	<-genEntered
	<-genEntered
	genRelease <- struct{}{}
	genRelease <- struct{}{}
	wg.Wait()
	if t.Failed() {
		return
	}
	if ids[0] != ids[1] {
		t.Fatalf("identical submissions admitted as %s and %s", ids[0], ids[1])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := svc.Wait(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	keys := append([]string(nil), svc.runs[ids[0]].lookKeys...)
	svc.mu.Unlock()
	if len(keys) != 1 {
		t.Fatalf("the run holds lookaside keys %q, want its one key once", keys)
	}
}

// TestSweepKeepsProbedRunEvictedDuringAdmission: with Cache: 1, a sweep
// of {cached, gated} is held while its gated member resolves, after the
// lookaside probe has answered the cached one. Another run finishes
// meanwhile and evicts the cached run. Released, the sweep is admitted
// with the run it probed as member 0, Cached: admission holds the *run,
// so eviction in between cannot take the member away.
func TestSweepKeepsProbedRunEvictedDuringAdmission(t *testing.T) {
	svc := newService(t, Config{Jobs: 2, Cache: 1})
	cached := submitAndWait(t, svc, countSpec(9500))
	before := svc.metrics.cacheLookaside.Value()
	type outcome struct {
		batch BatchSnapshot
		err   error
	}
	admitted := make(chan outcome, 1)
	go func() {
		b, err := svc.SubmitSweep("", []sim.Spec{countSpec(9500), gatedSpec(9501)})
		admitted <- outcome{b, err}
	}()
	<-genEntered
	submitAndWait(t, svc, countSpec(9502))
	if _, ok := svc.Get(cached.ID); ok {
		genRelease <- struct{}{}
		t.Fatalf("run %s still indexed after a later run finished with Cache: 1", cached.ID)
	}
	genRelease <- struct{}{}
	got := <-admitted
	if got.err != nil {
		t.Fatalf("sweep rejected: %v", got.err)
	}
	if len(got.batch.Runs) != 2 {
		t.Fatalf("sweep admitted %d runs, want 2", len(got.batch.Runs))
	}
	if m := got.batch.Runs[0]; m.ID != cached.ID || !m.Cached {
		t.Fatalf("member 0 is %s (cached %v), want the probed run %s, cached", m.ID, m.Cached, cached.ID)
	}
	if moved := svc.metrics.cacheLookaside.Value() - before; moved != 1 {
		t.Fatalf("lookaside counter moved by %d, want 1", moved)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := svc.WaitSweep(ctx, got.batch.ID); err != nil {
		t.Fatal(err)
	}
}

// TestPanickingResolutionFreesItsSlot: a generator that panics inside
// sim.ResolveSpec (the HTTP server recovers the panic per request) gives
// its admission slot back. Jobs such submissions used to take every slot
// for good, so the next submission waited forever.
func TestPanickingResolutionFreesItsSlot(t *testing.T) {
	const jobs = 2
	svc, err := New(Config{Jobs: jobs, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	bad := sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "panicgen", Ranks: 4, Bytes: 64}}, Backend: "countsim"}
	good := sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: 64}}, Backend: "countsim"}
	done := make(chan error, 1)
	go func() {
		for i := range jobs + 1 {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("submission %d: the generator's panic did not reach the submitter", i)
					}
				}()
				_, _ = svc.Submit(bad)
			}()
		}
		_, err := svc.Submit(good)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a valid spec was not admitted within 5 s of panicking resolutions")
	}
}

package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"atlahs/internal/simtime"
)

// driveLattice runs a synthetic multi-lane workload on any Sim: each lane
// executes `rounds` events spaced `step` apart, and every event forwards a
// token to the next lane at now+hop (hop >= the parallel lookahead). It
// returns a per-lane log of (lane, time, round) tuples plus the engine's
// final time, which together fingerprint the execution.
func driveLattice(eng Sim, lanes, rounds int, step, hop simtime.Duration) ([][]string, simtime.Time) {
	logs := make([][]string, lanes)
	var tick func(lane, round int)
	tick = func(lane, round int) {
		ln := eng.Lane(lane)
		logs[lane] = append(logs[lane], fmt.Sprintf("lane %d round %d at %v", lane, round, ln.Now()))
		if round >= rounds {
			return
		}
		ln.After(step, func() { tick(lane, round+1) })
		next := (lane + 1) % lanes
		from := lane
		ln.ScheduleOn(next, ln.Now().Add(hop), func() {
			logs[next] = append(logs[next], fmt.Sprintf("token %d->%d round %d at %v",
				from, next, round, eng.Lane(next).Now()))
		})
	}
	for l := 0; l < lanes; l++ {
		lane := l
		eng.Lane(lane).Schedule(simtime.Time(lane)*simtime.Time(simtime.Nanosecond), func() { tick(lane, 0) })
	}
	end := eng.Run()
	return logs, end
}

// TestParEngineDeterministicAcrossWorkers is the core determinism
// guarantee: the same workload executes identically — same per-lane event
// sequences, same clocks, same event counts — at 1, 2, 4 and 8 workers.
func TestParEngineDeterministicAcrossWorkers(t *testing.T) {
	const lanes, rounds = 16, 40
	step, hop := 3*simtime.Microsecond, 5*simtime.Microsecond
	var refLogs [][]string
	var refEnd simtime.Time
	var refProcessed uint64
	for _, workers := range []int{1, 2, 4, 8} {
		for rep := 0; rep < 2; rep++ {
			eng := NewParallel(lanes, workers, hop)
			logs, end := driveLattice(eng, lanes, rounds, step, hop)
			if refLogs == nil {
				refLogs, refEnd, refProcessed = logs, end, eng.EventsProcessed()
				continue
			}
			if end != refEnd {
				t.Fatalf("workers=%d rep=%d: end %v, want %v", workers, rep, end, refEnd)
			}
			if got := eng.EventsProcessed(); got != refProcessed {
				t.Fatalf("workers=%d rep=%d: %d events, want %d", workers, rep, got, refProcessed)
			}
			if !reflect.DeepEqual(logs, refLogs) {
				t.Fatalf("workers=%d rep=%d: execution log diverged", workers, rep)
			}
		}
	}
}

// TestParEngineMatchesSerialEngine runs the same lattice on the serial
// engine: per-lane event sequences and the final clock must coincide.
func TestParEngineMatchesSerialEngine(t *testing.T) {
	const lanes, rounds = 8, 25
	step, hop := 2*simtime.Microsecond, 7*simtime.Microsecond
	serLogs, serEnd := driveLattice(New(), lanes, rounds, step, hop)
	parLogs, parEnd := driveLattice(NewParallel(lanes, 4, hop), lanes, rounds, step, hop)
	if parEnd != serEnd {
		t.Fatalf("parallel end %v, serial end %v", parEnd, serEnd)
	}
	if !reflect.DeepEqual(parLogs, serLogs) {
		t.Fatalf("parallel execution log diverged from serial")
	}
}

// TestParEngineLaneOrdering checks the deterministic key: same-lane events
// at one timestamp fire in scheduling order, and a lane's clock never runs
// backwards.
func TestParEngineLaneOrdering(t *testing.T) {
	eng := NewParallel(2, 2, simtime.Microsecond)
	var got []int
	l0 := eng.Lane(0)
	at := simtime.Time(100)
	for i := 0; i < 5; i++ {
		i := i
		l0.Schedule(at, func() { got = append(got, i) })
	}
	eng.Run()
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("same-time events fired as %v, want %v", got, want)
	}
}

func TestParEngineLookaheadViolationPanics(t *testing.T) {
	eng := NewParallel(2, 2, simtime.Microsecond)
	eng.Lane(0).Schedule(0, func() {
		// Cross-lane event closer than the lookahead: a model bug that must
		// be caught loudly, not silently reordered.
		eng.Lane(0).ScheduleOn(1, simtime.Time(10*simtime.Nanosecond), func() {})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected lookahead-violation panic")
		}
	}()
	eng.Run()
}

func TestParEngineSchedulingInPastPanics(t *testing.T) {
	eng := NewParallel(1, 1, simtime.Microsecond)
	eng.Lane(0).Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected past-scheduling panic")
			}
		}()
		eng.Lane(0).Schedule(50, func() {})
	})
	eng.Run()
}

// TestParEngineRethrowsWorkerPanic: a handler panic on a pool worker
// reaches Run's caller with its own value. Eight lanes at time 0 are more
// than batchLanes, so two workers take the window rather than the
// coordinator running it inline.
func TestParEngineRethrowsWorkerPanic(t *testing.T) {
	type boom struct{ lane int }
	eng := NewParallel(8, 2, simtime.Microsecond)
	for ln := range 8 {
		eng.ScheduleOn(ln, 0, func() {
			if ln == 5 {
				panic(boom{ln})
			}
		})
	}
	func() {
		defer func() {
			if r := recover(); r != (boom{5}) {
				t.Fatalf("Run panicked with %v, want the handler's boom{5}", r)
			}
		}()
		eng.Run()
	}()
	if st := eng.Stats(); st.DispatchedWindows < 1 {
		t.Fatalf("stats %+v: the window ran inline, not on the pool", st)
	}
}

// TestParEngineWorkerPoolExits: the worker pool Run starts for a window
// it dispatches is gone once Run returns. Eight lanes at time 0 are more
// than batchLanes, so two workers take the window.
func TestParEngineWorkerPoolExits(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := NewParallel(8, 2, simtime.Microsecond)
	for ln := range 8 {
		eng.ScheduleOn(ln, 0, func() {})
	}
	eng.Run()
	if st := eng.Stats(); st.DispatchedWindows < 1 {
		t.Fatalf("stats %+v: the window ran inline, not on the pool", st)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines 5 s after Run returned, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

func TestNewParallelRejectsBadConfig(t *testing.T) {
	for _, c := range []struct {
		name      string
		lanes     int
		lookahead simtime.Duration
	}{
		{"zero lanes", 0, simtime.Microsecond},
		{"zero lookahead", 4, 0},
		{"negative lookahead", 4, -simtime.Microsecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewParallel(c.lanes, 2, c.lookahead)
		})
	}
}

package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"atlahs/internal/simtime"
)

// TestAdaptiveSparseLanesFastForward exercises the widened minimum-lane
// bound on the workload it exists for: one busy lane far behind a set of
// idle-but-nonempty lanes. The run must complete with the exact event
// interleaving of the serial engine.
func TestAdaptiveSparseLanesFastForward(t *testing.T) {
	const lanes = 8
	hop := 5 * simtime.Microsecond
	// One log per lane: lanes run on different workers within a window.
	build := func(eng Sim) [][]string {
		logs := make([][]string, lanes)
		// Lane 0 ticks alone through a long quiet stretch, then pokes the
		// other lanes, which answer back — the sparse phase an adaptive
		// window crosses in half the barriers.
		var tick func(round int)
		tick = func(round int) {
			logs[0] = append(logs[0], eng.Lane(0).Now().String())
			if round < 50 {
				eng.Lane(0).After(simtime.Microsecond, func() { tick(round + 1) })
				return
			}
			for l := 1; l < lanes; l++ {
				dst := l
				eng.Lane(0).ScheduleOn(dst, eng.Lane(0).Now().Add(hop), func() {
					logs[dst] = append(logs[dst], eng.Lane(dst).Now().String())
				})
			}
		}
		eng.Lane(0).Schedule(0, func() { tick(0) })
		// The idle lanes hold one far-future event each so they stay
		// nonempty (the minOther bound applies) without participating.
		for l := 1; l < lanes; l++ {
			dst := l
			eng.Lane(dst).Schedule(simtime.Time(500*simtime.Microsecond), func() {
				logs[dst] = append(logs[dst], "late "+eng.Lane(dst).Now().String())
			})
		}
		return logs
	}
	serial := New()
	serialLogs := build(serial)
	serialEnd := serial.Run()
	for _, workers := range []int{1, 2, 4} {
		eng := NewParallel(lanes, workers, hop)
		parLogs := build(eng)
		parEnd := eng.Run()
		if parEnd != serialEnd {
			t.Fatalf("workers=%d: end %v, serial %v", workers, parEnd, serialEnd)
		}
		if !reflect.DeepEqual(parLogs, serialLogs) {
			t.Fatalf("workers=%d: per-lane logs diverged from serial:\n%v\n%v", workers, parLogs, serialLogs)
		}
		if st := eng.Stats(); st.WidenedWindows == 0 {
			t.Fatalf("workers=%d: no window was widened on the workload widening exists for: %+v", workers, st)
		}
	}
}

// TestBarrierRejectsEventInDestinationPast executes the soundness
// argument's conclusion. A cross-lane send is checked against the
// lookahead where it is made (TestParEngineLookaheadViolationPanics), but
// only against the clock of the lane view it is made through: a backend
// that under-states its lookahead obligation by scheduling through a lane
// other than the one its handler runs on passes that check with a stale
// clock, and the event reaches a lane that has already run past it. The
// barrier must refuse to deliver it rather than reorder the simulation.
// One worker keeps the deliberately wrong cross-lane access race-free.
func TestBarrierRejectsEventInDestinationPast(t *testing.T) {
	hop := 5 * simtime.Microsecond
	eng := NewParallel(2, 1, hop)
	late := simtime.Time(100 * simtime.Microsecond)
	eng.Lane(0).Schedule(late, func() {
		// Lane 1 never ran, so its clock is still 0 and 10µs looks a full
		// two hops away to its view — but lane 0 is already at 100µs.
		eng.Lane(1).ScheduleOn(0, simtime.Time(2*hop), func() {
			t.Error("an event in lane 0's past was delivered and executed")
		})
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the barrier to refuse an event stamped before its destination's clock")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "destination's past") {
			t.Fatalf("panic %q is not the barrier check", msg)
		}
	}()
	eng.Run()
}

// TestEngineAllocsPerEvent is the allocation-regression gate on the
// per-event hot path: with the typed 4-ary heaps and a queue already grown
// (AllocsPerRun's warm-up run; Reset keeps the capacity), a steady-state
// event (pop, run, push a successor) must not allocate.
func TestEngineAllocsPerEvent(t *testing.T) {
	const events = 1000
	t.Run("serial", func(t *testing.T) {
		e := New()
		count := 0
		var fn Handler
		fn = func() {
			count++
			if count < events {
				e.After(simtime.Nanosecond, fn)
			}
		}
		// Warm up so the heap and closure are steady state, then measure.
		allocs := testing.AllocsPerRun(5, func() {
			e.Reset()
			count = 0
			e.Schedule(0, fn)
			e.Run()
		})
		if per := allocs / events; per > 0.01 {
			t.Fatalf("serial engine allocates %.3f times per event (%.0f per %d-event run); the hot path must be allocation-free", per, allocs, events)
		}
	})
	t.Run("parallel-lane", func(t *testing.T) {
		// Workers=1 keeps AllocsPerRun meaningful (no pool goroutines
		// allocating concurrently); the lane push/pop path is identical
		// under more workers.
		p := NewParallel(2, 1, simtime.Microsecond)
		count := 0
		var fn Handler
		fn = func() {
			count++
			if count < events {
				p.Lane(0).After(simtime.Nanosecond, fn)
			}
		}
		// A drained lane keeps its queue's capacity; each run starts at
		// the clock the last one left.
		allocs := testing.AllocsPerRun(5, func() {
			count = 0
			p.Lane(0).Schedule(p.Lane(0).Now(), fn)
			p.Run()
		})
		if per := allocs / events; per > 0.01 {
			t.Fatalf("parallel lane allocates %.3f times per event (%.0f per %d-event run); the hot path must be allocation-free", per, allocs, events)
		}
	})
}

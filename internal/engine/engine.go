// Package engine implements the deterministic discrete-event core that
// drives every ATLAHS simulation backend.
//
// The engine maintains a 4-ary min-heap of pending events ordered by
// (timestamp, sequence number). Ties in timestamp are broken by insertion
// order, which makes every simulation fully deterministic: identical inputs
// produce identical event interleavings and therefore identical results.
// All backends (LogGOPS message-level, packet-level, fluid-flow) schedule
// their work through a single Engine instance per simulation.
package engine

import (
	"fmt"

	"atlahs/internal/simtime"
)

// Handler is the callback invoked when an event fires. It runs at the
// event's timestamp; Engine.Now() returns that timestamp during the call.
type Handler func()

// Sim is the simulation-clock contract shared by the serial Engine and the
// parallel ParEngine. Backends and the scheduler program against it, so a
// simulation can run on either engine unchanged.
//
// Lanes partition simulation state for parallel execution; in ATLAHS one
// lane corresponds to one GOAL rank. A handler running on lane r may touch
// only lane-r state and may schedule further lane-r events at any time >=
// now via Schedule. Events for another lane must go through ScheduleOn and
// — on the parallel engine — must lie at least the engine's lookahead after
// the current time. The serial Engine ignores lanes entirely: Lane returns
// the engine itself and ScheduleOn behaves like Schedule, so serial code
// pays no cost for the contract.
type Sim interface {
	// Now returns the current simulated time of the calling context (the
	// lane's clock on the parallel engine).
	Now() simtime.Time
	// Schedule enqueues fn at absolute time at on the current lane.
	Schedule(at simtime.Time, fn Handler)
	// ScheduleOn enqueues fn at absolute time at on the given lane. On the
	// parallel engine, cross-lane events must satisfy the lookahead window
	// (at >= Now() + lookahead) while the engine is running.
	ScheduleOn(lane int, at simtime.Time, fn Handler)
	// After enqueues fn to run d after the current time on the current lane.
	After(d simtime.Duration, fn Handler)
	// Lane returns the Sim view for scheduling and reading time on the given
	// lane. The serial engine returns itself.
	Lane(lane int) Sim
	// Run executes events until the queues drain and returns the time of the
	// last executed event.
	Run() simtime.Time
	// EventsProcessed reports how many events have executed so far.
	EventsProcessed() uint64
}

type event struct {
	at  simtime.Time
	seq uint64
	fn  Handler
}

func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a typed 4-ary min-heap ordered by (at, seq), the same shape
// as the parallel engine's peventHeap: no container/heap interface{}
// boxing on push (which allocated on every Schedule) and half the tree
// depth of a binary heap. Keys are unique — seq strictly increases — so
// pop order is a total order and identical to the old container/heap
// implementation.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	if n > 0 {
		i := 0
		for {
			c := i*4 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if q[j].before(q[m]) {
					m = j
				}
			}
			if !q[m].before(last) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	return top
}

// Engine is a single-threaded discrete-event simulator clock and queue.
// The zero value is not usable; create one with New.
type Engine struct {
	now     simtime.Time
	seq     uint64
	queue   eventHeap
	stopped bool
	// peak is the queue-depth high-water mark, sampled before each pop
	// (see Stats).
	peak int

	// Processed counts events executed so far (for stats/benchmarks).
	Processed uint64
}

// New returns an empty engine with the clock at time zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() simtime.Time { return e.now }

// Schedule enqueues fn to run at absolute time at. Scheduling in the past
// panics: that is always a simulator bug, never a recoverable condition.
func (e *Engine) Schedule(at simtime.Time, fn Handler) {
	if at < e.now {
		panic(fmt.Sprintf("engine: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	e.queue.push(event{at: at, seq: e.seq, fn: fn})
}

// Reserve makes room for n pending events ahead of a burst of Schedule
// calls whose size the caller knows (the scheduler's seeding pass), in
// one allocation instead of append's dozen regrowths.
func (e *Engine) Reserve(n int) {
	if cap(e.queue) < n {
		e.queue = append(make(eventHeap, 0, n), e.queue...)
	}
}

// ScheduleOn implements Sim. The serial engine has a single event queue, so
// the lane is irrelevant and the call is identical to Schedule.
func (e *Engine) ScheduleOn(lane int, at simtime.Time, fn Handler) {
	e.Schedule(at, fn)
}

// After enqueues fn to run d after the current time.
func (e *Engine) After(d simtime.Duration, fn Handler) {
	e.Schedule(e.now.Add(d), fn)
}

// Lane implements Sim: every lane of the serial engine is the engine itself.
func (e *Engine) Lane(lane int) Sim { return e }

// EventsProcessed implements Sim.
func (e *Engine) EventsProcessed() uint64 { return e.Processed }

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue drains or Stop is
// called, and returns the time of the last executed event.
func (e *Engine) Run() simtime.Time {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		if n := len(e.queue); n > e.peak {
			e.peak = n
		}
		ev := e.queue.pop()
		e.now = ev.at
		e.Processed++
		ev.fn()
	}
	return e.now
}

// Reset discards all pending events and rewinds the clock to zero so the
// engine can be reused for another simulation.
func (e *Engine) Reset() {
	e.now = 0
	e.seq = 0
	e.queue = e.queue[:0]
	e.stopped = false
	e.peak = 0
	e.Processed = 0
}

// Package engine implements the deterministic discrete-event core that
// drives every ATLAHS simulation backend.
//
// The serial Engine keeps its pending events in a monotone radix heap and
// runs them in timestamp order, breaking ties by the order they were
// scheduled in. That makes every simulation fully deterministic: identical
// inputs produce identical event interleavings and therefore identical
// results. All backends (LogGOPS message-level, packet-level, fluid-flow)
// schedule their work through a single Engine instance per simulation.
package engine

import (
	"fmt"
	"math"
	"math/bits"

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

// slot is one pending event in the engine's slab. next links it into its
// bucket's FIFO list, or into the free list once it has run.
type slot struct {
	at   simtime.Time
	fn   Handler
	next int32
}

// buckets is one more than the highest bit at^now can have: the clock
// never goes below zero, so bit 63 of a time is always clear.
const buckets = 64

// Engine is a single-threaded discrete-event simulator clock and queue.
// The zero value is not usable; create one with New.
//
// The queue is a monotone radix heap. A pending event at time at sits in
// bucket bits.Len64(at^now), so bucket 0 holds the events at now and
// bucket b those that first differ from now at bit b-1. Each bucket is a
// FIFO list linked through one slab of 24-byte slots, and freed slots go
// on a free list, so the slab grows only when more events are pending
// than ever before, whatever the clock reads. Each bucket also keeps its
// earliest time. When bucket 0 runs dry, Run takes the lowest non-empty
// bucket, moves the clock to its earliest time and relinks the bucket's
// events, in list order, into the buckets below it, which are empty; no
// other bucket changes, since its events still first differ from the new
// now at the same bit. Events at one time always share a bucket, and
// every move keeps their order, so they run in the order they were
// scheduled.
type Engine struct {
	now        simtime.Time
	slots      []slot
	free       int32 // head of the free list, -1 when empty
	head, tail [buckets]int32
	low        [buckets]simtime.Time // earliest time in bucket b
	full       uint64                // bit b set when bucket b holds an event
	pending    int
	stopped    bool
	// peak is the queue-depth high-water mark, sampled before each event
	// runs (see Stats).
	peak int

	// Processed counts events executed so far (for stats/benchmarks).
	Processed uint64
}

// New returns an empty engine with the clock at time zero.
func New() *Engine {
	return &Engine{free: -1}
}

// Now returns the current simulated time.
func (e *Engine) Now() simtime.Time { return e.now }

// Schedule enqueues fn to run at absolute time at. Scheduling in the past
// panics: that is always a simulator bug, never a recoverable condition.
func (e *Engine) Schedule(at simtime.Time, fn Handler) {
	if at < e.now {
		panic(fmt.Sprintf("engine: scheduling event at %v before now %v", at, e.now))
	}
	i := e.free
	if i >= 0 {
		e.free = e.slots[i].next
		e.slots[i] = slot{at: at, fn: fn}
	} else {
		if len(e.slots) == math.MaxInt32 {
			panic("engine: more than 2^31-1 events pending")
		}
		i = int32(len(e.slots))
		e.slots = append(e.slots, slot{at: at, fn: fn})
	}
	e.link(bits.Len64(uint64(at^e.now)), i, at)
	e.pending++
}

// link appends slot i, an event at at, to bucket b's list. A list ends at
// its tail, so the tail's next is never read.
func (e *Engine) link(b int, i int32, at simtime.Time) {
	if e.full&(1<<b) == 0 {
		e.full |= 1 << b
		e.head[b] = i
		e.low[b] = at
	} else {
		e.slots[e.tail[b]].next = i
		e.low[b] = min(e.low[b], at)
	}
	e.tail[b] = i
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
	for e.pending > 0 && !e.stopped {
		if e.pending > e.peak {
			e.peak = e.pending
		}
		if e.full&1 == 0 {
			e.advance()
		}
		i := e.head[0]
		s := &e.slots[i]
		if i == e.tail[0] {
			e.full &^= 1
		} else {
			e.head[0] = s.next
		}
		fn := s.fn
		s.fn = nil
		s.next = e.free
		e.free = i
		e.pending--
		e.Processed++
		fn()
	}
	return e.now
}

// advance moves the clock to the earliest pending event, with bucket 0
// empty: to the earliest time of the lowest non-empty bucket, whose events
// it relinks, in order, into the buckets that time puts them in, all of
// them lower.
func (e *Engine) advance() {
	b := bits.TrailingZeros64(e.full)
	e.full &^= 1 << b
	i, last := e.head[b], e.tail[b]
	now := e.low[b]
	e.now = now
	for {
		s := &e.slots[i]
		next := s.next
		e.link(bits.Len64(uint64(s.at^now)), i, s.at)
		if i == last {
			return
		}
		i = next
	}
}

// Reset discards all pending events and rewinds the clock to zero so the
// engine can be reused for another simulation. The slab keeps its
// capacity.
func (e *Engine) Reset() {
	clear(e.slots)
	*e = Engine{slots: e.slots[:0], free: -1}
}

package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"atlahs/internal/simtime"
)

// ParEngine is a conservative parallel discrete-event engine (the
// parallelisation the ATLAHS paper applied to LogGOPSim, §5). Simulation
// state is partitioned into lanes — one per GOAL rank — and time advances
// in windows bounded by `lookahead`: because no cross-lane interaction can
// take effect sooner than the model's minimum cross-rank delay (the
// LogGOPS wire latency L), every lane can execute its events inside the
// window [T, T+lookahead) independently. Worker goroutines process lanes
// concurrently; cross-lane events produced during a window are buffered
// per source lane and delivered at the window barrier.
//
// Adaptive windowing is the one window rule: each lane's window is
// widened to its individually provable bound instead of a uniform
// T+lookahead. With h_i the lanes' earliest pending event times, la the
// lookahead, and minOther_i the smallest head among the *other* non-empty
// lanes, lane i may safely run to
//
//	end_i = min(minOther_i + la, h_i + 2·la)
//
// Soundness: a cross-lane event sent directly to lane i by some lane j is
// stamped at ≥ h_j + la ≥ minOther_i + la ≥ end_i, and any chain of
// reactions gains at least la per hop, so the earliest round trip back
// into the window's minimum lane arrives at ≥ h_min + 2·la ≥ end_min
// (execution is strictly before end, so arrival exactly at end is safe).
// For every lane except the unique minimum this reduces to the classic
// h_min + la window; the minimum lane — and in particular a lane running
// alone, minOther = ∞ — fast-forwards through quiet stretches in 2·la
// strides instead of la, halving the number of barriers on sparse phases.
// The bound never changes *which* events a lane executes before any event
// it could receive, only how many barriers separate them, so results are
// bit-identical to the serial engine's (uniform windows, which this rule
// replaced, measured the same within noise: 145.9 vs 147.3 ms on the
// 240k-op ledger schedule). The argument is also executed: the barrier
// in Run panics if a delivered event is stamped before its destination
// lane's clock, which is exactly the conclusion above failing.
// Low-occupancy windows are additionally batched onto fewer workers (and
// run inline on the coordinator when only a handful of lanes are active)
// to keep the wakeup/barrier cost proportional to the work available.
//
// Determinism: every event carries the key (at, schedAt, schedLane,
// schedSeq), assigned at scheduling time from the scheduling lane's own
// clock and counter. The key is a function of each lane's deterministic
// execution history only — never of cross-lane goroutine interleaving or
// window placement — and each lane executes its events in key order. The
// simulation therefore evolves identically for any worker count; workers
// change wall-clock time, nothing else.
//
// Relative to the serial Engine, which breaks same-timestamp ties by
// global insertion order, execution is identical except in one corner:
// two handlers on *different* lanes firing at the *same* timestamp and
// scheduling events for one target at the same time tie on (at, schedAt)
// and fall through to lane order, where the serial engine would use the
// handlers' own execution order. The equivalence suite in
// internal/backend/par_test.go pins serial == parallel on the LGS
// workloads; within the parallel engine, results never depend on the
// worker count.
//
// Why the serial Engine stays beside this one: it is the only engine the
// congestion-aware backends (pkt, fluid) can run on — they share fabric
// state and declare no lookahead — it is the reference the equivalence
// suite compares every ParEngine run against, and the performance ledger
// shows no winner between the two (engine.par_speedup 0.65–0.82 at 2
// workers on 2 cores, while ParEngine at 1 worker beats Engine on some
// schedules). The two engines keep different queues. The serial Engine's
// radix heap breaks ties by arrival, which is scheduling order only
// because one clock schedules everything. A lane here must break ties by
// the full key, and events from other lanes reach it at the barrier out of
// key order, so each lane keeps a typed 4-ary heap (peventHeap).
type ParEngine struct {
	workers   int
	lookahead simtime.Duration
	lanes     []*lane
	running   bool
	now       simtime.Time
	// stats accumulates the coordinator-side window counters (see
	// RunStats); all writes happen on the coordinating goroutine.
	stats RunStats
}

// pevent is a parallel-engine event with its deterministic ordering key.
type pevent struct {
	at        simtime.Time
	schedAt   simtime.Time
	schedLane int32
	schedSeq  uint64
	fn        Handler
}

func (a pevent) before(b pevent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.schedLane != b.schedLane {
		return a.schedLane < b.schedLane
	}
	return a.schedSeq < b.schedSeq
}

// peventHeap is a typed 4-ary min-heap ordered by the event key. Compared
// to container/heap it avoids the interface{} boxing allocation on every
// push and halves the tree depth, which matters: queue operations dominate
// the engine's per-event cost.
type peventHeap []pevent

func (h *peventHeap) push(ev pevent) {
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

func (h *peventHeap) pop() pevent {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = pevent{}
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

// outEvent is a cross-lane event buffered until the window barrier.
type outEvent struct {
	dst int
	ev  pevent
}

// lane is one shard of the simulation: its own clock, event queue and
// scheduling counter. During a window a lane is touched by exactly one
// worker goroutine; between windows only the coordinating goroutine runs.
type lane struct {
	id        int
	eng       *ParEngine
	now       simtime.Time
	seq       uint64
	queue     peventHeap
	processed uint64
	// out buffers this lane's cross-lane events until the window barrier.
	// It is truncated, never freed, so the outbox allocation is amortised
	// across all windows of a run.
	out []outEvent
	// end is this window's per-lane execution bound, set by the
	// coordinator before dispatch (see Run for the bound).
	end simtime.Time
}

// NewParallel creates a parallel engine with `lanes` lanes advancing under
// a conservative window of width `lookahead` (must be positive: it is the
// model's guaranteed minimum cross-lane delay). workers <= 0 means
// GOMAXPROCS.
func NewParallel(lanes, workers int, lookahead simtime.Duration) *ParEngine {
	if lanes <= 0 {
		panic(fmt.Sprintf("engine: non-positive lane count %d", lanes))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("engine: non-positive lookahead %v (the model must guarantee a minimum cross-lane delay)", lookahead))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &ParEngine{workers: workers, lookahead: lookahead, lanes: make([]*lane, lanes)}
	for i := range p.lanes {
		p.lanes[i] = &lane{id: i, eng: p}
	}
	return p
}

// Lanes reports the number of lanes.
func (p *ParEngine) Lanes() int { return len(p.lanes) }

// Now implements Sim. On the root engine it is the time of the last
// executed event (lanes carry their own clocks while running).
func (p *ParEngine) Now() simtime.Time { return p.now }

// Schedule implements Sim on the root engine: events without a lane
// context go to lane 0. Only valid outside Run (setup-time injection).
func (p *ParEngine) Schedule(at simtime.Time, fn Handler) { p.ScheduleOn(0, at, fn) }

// ScheduleOn implements Sim on the root engine: setup-time injection onto
// the given lane. While Run is executing, scheduling must go through lane
// views (Lane), which know their own clocks.
func (p *ParEngine) ScheduleOn(ln int, at simtime.Time, fn Handler) {
	if p.running {
		panic("engine: ScheduleOn on the root ParEngine during Run; schedule through a Lane view")
	}
	p.lanes[ln].Schedule(at, fn)
}

// After implements Sim on the root engine (setup-time only, lane 0).
func (p *ParEngine) After(d simtime.Duration, fn Handler) { p.Schedule(p.now.Add(d), fn) }

// Lane implements Sim.
func (p *ParEngine) Lane(ln int) Sim { return p.lanes[ln] }

// EventsProcessed implements Sim. Call it between windows or after Run.
func (p *ParEngine) EventsProcessed() uint64 {
	var n uint64
	for _, l := range p.lanes {
		n += l.processed
	}
	return n
}

// Run implements Sim: windowed conservative parallel execution until every
// lane drains. Returns the time of the last executed event. Worker
// goroutines are spawned once here and fed windows through a channel,
// rather than spawned per window: long simulations with a small lookahead
// execute many thousands of windows, and the per-window spawn/join
// overhead was measurable (see BenchmarkParEngineVsSerial).
func (p *ParEngine) Run() simtime.Time {
	p.running = true
	defer func() { p.running = false }()
	var pool *winPool
	if p.workers > 1 && len(p.lanes) > 1 {
		pool = newWinPool(p.workers)
		defer pool.close()
	}
	active := make([]*lane, 0, len(p.lanes))
	for {
		// The window base is the earliest pending event anywhere; every
		// event executed this window is >= T, so cross-lane events (>= its
		// lane's now + lookahead) land at or beyond the window end. The
		// scan also tracks the second-smallest head (m2, counting
		// duplicates of the minimum), which the adaptive bound needs.
		var m1, m2 simtime.Time
		nheads, pending := 0, 0
		for _, l := range p.lanes {
			pending += len(l.queue)
			if len(l.queue) == 0 {
				continue
			}
			h := l.queue[0].at
			switch {
			case nheads == 0:
				m1 = h
			case h < m1:
				m2 = m1
				m1 = h
			case nheads == 1 || h < m2:
				m2 = h
			}
			nheads++
		}
		if nheads == 0 {
			break
		}
		if pending > p.stats.PeakPending {
			p.stats.PeakPending = pending
		}
		p.stats.Windows++
		windowEnd := m1.Add(p.lookahead)
		// Adaptive bound for lanes at the minimum head: min(minOther +
		// la, m1 + 2·la), where minOther is m2, or absent entirely when
		// this is the only non-empty lane. With several lanes tied at the
		// minimum, m2 == m1 and the bound collapses to the uniform window
		// — no special casing needed. See the type comment for the
		// soundness argument.
		minEnd := m1.Add(2 * p.lookahead)
		if nheads > 1 && m2.Add(p.lookahead) < minEnd {
			minEnd = m2.Add(p.lookahead)
		}
		if minEnd > windowEnd {
			p.stats.WidenedWindows++
		}
		active = active[:0]
		for _, l := range p.lanes {
			if len(l.queue) == 0 {
				continue
			}
			h := l.queue[0].at
			end := windowEnd
			if h == m1 {
				end = minEnd
			}
			if h < end {
				l.end = end
				active = append(active, l)
			}
		}
		p.stats.ActiveLanes += uint64(len(active))
		if len(active) > p.stats.MaxActiveLanes {
			p.stats.MaxActiveLanes = len(active)
		}
		p.runWindow(pool, active)
		// Barrier: deliver buffered cross-lane events. Heap order is fully
		// determined by the per-event keys, so delivery order is irrelevant.
		// An event stamped before its destination's clock means that lane
		// already ran past it: the window rule's soundness argument (type
		// comment) says this cannot happen while every cross-lane send
		// honours the lookahead against its own lane's clock, so it is a
		// model bug — a handler scheduling through another lane's view
		// under-states its clock and slips past ScheduleOn's check — or an
		// engine bug, and either would silently reorder the simulation.
		for _, l := range p.lanes {
			for _, oe := range l.out {
				dst := p.lanes[oe.dst]
				if oe.ev.at < dst.now {
					panic(fmt.Sprintf("engine: lane %d -> %d event at %v arrives in the destination's past (its clock is %v); the sender's lookahead %v did not hold",
						l.id, oe.dst, oe.ev.at, dst.now, p.lookahead))
				}
				dst.queue.push(oe.ev)
			}
			l.out = l.out[:0]
		}
	}
	for _, l := range p.lanes {
		if l.now > p.now {
			p.now = l.now
		}
	}
	return p.now
}

// batchLanes is the low-occupancy batching factor: a window wakes at most
// one worker per batchLanes active lanes, so sparse windows (a handful of
// lanes with work) pay for one or two channel wakeups instead of a full
// complement, and a near-empty window runs inline on the coordinator with
// no barrier at all. Purely an execution-strategy knob — per-lane event
// order is fixed by the keys, so batching cannot affect results.
const batchLanes = 4

// runWindow executes every active lane up to (strictly before) its
// per-lane end, spreading lanes across the pool's persistent worker
// goroutines.
func (p *ParEngine) runWindow(pool *winPool, active []*lane) {
	nw := p.workers
	if nw > len(active) {
		nw = len(active)
	}
	if batched := (len(active) + batchLanes - 1) / batchLanes; nw > batched {
		nw = batched
	}
	if pool == nil || nw <= 1 {
		p.stats.InlineWindows++
		for _, l := range active {
			l.runTo(l.end)
		}
		return
	}
	p.stats.DispatchedWindows++
	p.stats.WorkerWakeups += uint64(nw)
	pool.dispatch(nw, active)
}

// winPool is the persistent window-execution pool: its goroutines live for
// the whole Run and pick up one window after another, so the steady-state
// per-window cost is channel wakeups instead of goroutine spawns. The
// window description lives on the pool (published before the wakeup sends,
// collected after the barrier), so dispatching allocates nothing.
type winPool struct {
	// jobs carries one wakeup token per participating worker per window;
	// closing it retires the pool.
	jobs chan struct{}
	// active describes the current window (each lane carries its own
	// execution bound in lane.end); written by the coordinator before the
	// wakeup sends and read by workers after receiving one.
	active []*lane
	// next is the shared lane-stealing cursor.
	next atomic.Int64
	// wg is the window barrier.
	wg sync.WaitGroup
	// panics collects worker panics for rethrow on the coordinator.
	panics chan interface{}
}

// newWinPool starts `workers` persistent window workers.
func newWinPool(workers int) *winPool {
	wp := &winPool{
		jobs:   make(chan struct{}, workers),
		panics: make(chan interface{}, workers),
	}
	for w := 0; w < workers; w++ {
		go wp.worker()
	}
	return wp
}

// worker processes window wakeups until the pool closes.
func (wp *winPool) worker() {
	for range wp.jobs {
		wp.runShard()
		wp.wg.Done()
	}
}

// runShard steals lanes off the current window until none remain.
func (wp *winPool) runShard() {
	defer func() {
		if r := recover(); r != nil {
			wp.panics <- r
		}
	}()
	for {
		i := int(wp.next.Add(1) - 1)
		if i >= len(wp.active) {
			return
		}
		l := wp.active[i]
		l.runTo(l.end)
	}
}

// dispatch runs one window across nw workers and blocks until the barrier.
// A worker panic is rethrown here, after the remaining workers finish, so
// the engine's failure mode matches the old spawn-per-window behaviour.
func (wp *winPool) dispatch(nw int, active []*lane) {
	wp.active = active
	wp.next.Store(0)
	wp.wg.Add(nw)
	for w := 0; w < nw; w++ {
		wp.jobs <- struct{}{}
	}
	wp.wg.Wait()
	wp.active = nil
	select {
	case r := <-wp.panics:
		panic(r)
	default:
	}
}

// close retires the pool's goroutines.
func (wp *winPool) close() { close(wp.jobs) }

// runTo executes the lane's events with timestamps strictly before end.
func (l *lane) runTo(end simtime.Time) {
	for len(l.queue) > 0 && l.queue[0].at < end {
		ev := l.queue.pop()
		l.now = ev.at
		l.processed++
		ev.fn()
	}
}

// Now implements Sim for a lane view.
func (l *lane) Now() simtime.Time { return l.now }

// Schedule implements Sim for a lane view: a lane-local event, ordered by
// the deterministic key stamped here.
func (l *lane) Schedule(at simtime.Time, fn Handler) {
	if at < l.now {
		panic(fmt.Sprintf("engine: lane %d scheduling event at %v before now %v", l.id, at, l.now))
	}
	ev := pevent{at: at, schedAt: l.now, schedLane: int32(l.id), schedSeq: l.seq, fn: fn}
	l.seq++
	l.queue.push(ev)
}

// ScheduleOn implements Sim for a lane view. Cross-lane events must
// respect the lookahead window while the engine is running; violations are
// model bugs (the backend promised a larger minimum delay than it honours)
// and panic immediately.
func (l *lane) ScheduleOn(dst int, at simtime.Time, fn Handler) {
	if dst == l.id {
		l.Schedule(at, fn)
		return
	}
	ev := pevent{at: at, schedAt: l.now, schedLane: int32(l.id), schedSeq: l.seq, fn: fn}
	l.seq++
	if l.eng.running {
		if at < l.now.Add(l.eng.lookahead) {
			panic(fmt.Sprintf("engine: lane %d -> %d event at %v violates lookahead %v from now %v",
				l.id, dst, at, l.eng.lookahead, l.now))
		}
		l.out = append(l.out, outEvent{dst: dst, ev: ev})
		return
	}
	// Setup time is single-goroutine: deliver directly.
	if at < l.now {
		panic(fmt.Sprintf("engine: lane %d scheduling event at %v before now %v", l.id, at, l.now))
	}
	l.eng.lanes[dst].queue.push(ev)
}

// After implements Sim for a lane view.
func (l *lane) After(d simtime.Duration, fn Handler) { l.Schedule(l.now.Add(d), fn) }

// Lane implements Sim for a lane view.
func (l *lane) Lane(ln int) Sim { return l.eng.lanes[ln] }

// Run implements Sim for a lane view; only the root engine can run.
func (l *lane) Run() simtime.Time {
	panic("engine: Run called on a lane view; call Run on the ParEngine")
}

// EventsProcessed implements Sim for a lane view (whole-engine count).
// Like the root method it is only meaningful between windows or after Run:
// calling it from a handler while other workers are mid-window would read
// their counters racily.
func (l *lane) EventsProcessed() uint64 { return l.eng.EventsProcessed() }

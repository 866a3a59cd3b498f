package engine

import (
	"testing"

	"atlahs/internal/simtime"
	"atlahs/internal/xrand"
)

// refEvent and refHeap are the typed 4-ary min-heap the serial engine kept
// its events in before the radix heap, keyed on (at, seq): seq strictly
// increases, so keys are unique and pop order is a total order, the one
// every pin was recorded under.
type refEvent struct {
	at  simtime.Time
	seq uint64
	fn  Handler
}

func (a refEvent) before(b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

type refHeap []refEvent

func (h *refHeap) push(ev refEvent) {
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

func (h *refHeap) pop() refEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = refEvent{}
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

// refEngine is a serial engine over refHeap: the reference Engine is held
// to, event for event.
type refEngine struct {
	now       simtime.Time
	seq       uint64
	queue     refHeap
	stopped   bool
	peak      int
	processed uint64
}

func (e *refEngine) Now() simtime.Time { return e.now }

func (e *refEngine) Schedule(at simtime.Time, fn Handler) {
	if at < e.now {
		panic("refEngine: scheduling in the past")
	}
	e.seq++
	e.queue.push(refEvent{at: at, seq: e.seq, fn: fn})
}

func (e *refEngine) After(d simtime.Duration, fn Handler) { e.Schedule(e.now.Add(d), fn) }

func (e *refEngine) Stop() { e.stopped = true }

func (e *refEngine) Run() simtime.Time {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		if n := len(e.queue); n > e.peak {
			e.peak = n
		}
		ev := e.queue.pop()
		e.now = ev.at
		e.processed++
		ev.fn()
	}
	return e.now
}

func (e *refEngine) Reset() { *e = refEngine{queue: e.queue[:0]} }

func (e *refEngine) Stats() RunStats {
	return RunStats{Events: e.processed, PeakPending: e.peak}
}

// orderQueue is what FuzzEngineOrderMatchesHeap drives on both engines.
type orderQueue interface {
	Now() simtime.Time
	Schedule(at simtime.Time, fn Handler)
	After(d simtime.Duration, fn Handler)
	Stop()
	Run() simtime.Time
	Reset()
	Stats() RunStats
}

// program reads a handler tree from fuzz bytes, cycling through them.
type program struct {
	data []byte
	pos  int
	left int // events the current round may still schedule
}

func (p *program) next() byte {
	b := p.data[p.pos%len(p.data)]
	p.pos++
	return b
}

// offset is zero a quarter of the time; otherwise a few picoseconds, a
// multiple of a 1 KiB packet's serialisation time, or a power of two up
// to 2^40 ps that moves the clock's high bits.
func (p *program) offset() simtime.Duration {
	b := p.next()
	switch v := simtime.Duration(b >> 2); b & 3 {
	case 0:
		return 0
	case 1:
		return v
	case 2:
		return v * 40960
	default:
		return 1<<(v%41) + simtime.Duration(p.next())
	}
}

// step is one executed handler (at = Now() inside it; id > 0 in a tree,
// -1 for one scheduled at an absolute time) or one return from Run (id 0,
// at = its result, with the engine's Stats).
type step struct {
	id     int
	at     simtime.Time
	events uint64
	peak   int
}

// drive runs the program that data encodes on q and returns what q did:
// four rounds, each seeding a handler tree (zero to three children per
// handler, at offsets that include zero), running it with Stop cutting
// some passes short, and ending the round by Reset, sometimes with events
// still pending, or by keeping them for the next.
func drive(q orderQueue, data []byte) []step {
	if len(data) == 0 {
		return nil
	}
	p := &program{data: data}
	var trace []step
	id := 0
	var spawn func(d simtime.Duration)
	spawn = func(d simtime.Duration) {
		if p.left == 0 {
			return
		}
		p.left--
		id++
		me := id
		q.After(d, func() {
			trace = append(trace, step{id: me, at: q.Now()})
			c := p.next()
			for k := byte(0); k < c%4; k++ {
				spawn(p.offset())
			}
			if c >= 0xf0 {
				q.Stop()
			}
		})
	}
	for round := 0; round < 4; round++ {
		p.left = 512
		for k := p.next()%8 + 1; k > 0; k-- {
			spawn(p.offset())
		}
		if c := p.next(); c < 0x20 {
			at := q.Now() + simtime.Time(c)
			q.Schedule(at, func() { trace = append(trace, step{id: -1, at: q.Now()}) })
		}
		for pass := 0; pass < 8; pass++ {
			end := q.Run()
			st := q.Stats()
			trace = append(trace, step{at: end, events: st.Events, peak: st.PeakPending})
			if p.next()%8 == 0 {
				break
			}
		}
		if p.next()%2 == 0 {
			q.Reset()
		}
	}
	return trace
}

// FuzzEngineOrderMatchesHeap holds Engine to the 4-ary heap it must order
// like: the same handlers run in the same order, each seeing the same
// Now(), every Run returns the same time, and the event count and
// PeakPending agree after every Run, across Stop, resumption and Reset.
func FuzzEngineOrderMatchesHeap(f *testing.F) {
	rng := xrand.New(36)
	for i := 0; i < 48; i++ {
		b := make([]byte, 8+i*6)
		for j := range b {
			b[j] = byte(rng.Uint64())
		}
		f.Add(b)
	}
	f.Add([]byte{0})                      // every offset zero
	f.Add([]byte{3, 0xff, 0xfe, 7, 0x7b}) // clock-spanning offsets
	f.Fuzz(func(t *testing.T, data []byte) {
		got := drive(New(), data)
		want := drive(&refEngine{}, data)
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("step %d: engine %+v, reference heap %+v", i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("engine took %d steps, reference heap %d", len(got), len(want))
		}
	})
}

package core

import (
	"fmt"

	"atlahs/internal/engine"
	"atlahs/internal/simtime"
)

// Stream is one serialising resource of a rank — a compute stream, or the
// NIC — as an event source: it owns the time the resource is next free and
// the completions pending on it.
//
// Work a backend places on a stream only moves its free time forward
// (Acquire), and a completion the backend reports through it lies on that
// chain: the end of the work just placed, or a point inside it. The
// completions pending on one stream are therefore due in the order they
// were reported, and a ring of handles (8 bytes each) plus one handler
// bound when the stream is made carries all of them: each firing pops the
// oldest handle and reports it over at the lane's current time. No
// completion has a record or a closure of its own.
type Stream struct {
	free    simtime.Time // when the resource is next idle
	last    simtime.Time // when the newest completion reported here is due
	pending engine.FIFO[Handle]
	lane    engine.Sim
	over    CompletionFunc
	fire    engine.Handler // s.complete
}

// NewStream creates an idle stream whose completions fire on lane and are
// reported to over.
func NewStream(lane engine.Sim, over CompletionFunc) *Stream {
	s := &Stream{lane: lane, over: over}
	s.fire = s.complete
	return s
}

// Acquire reserves the stream from time `from` for dur and returns the
// actual [start, end) of the reservation (start >= from, delayed if the
// stream is busy). Work on one stream serialises even when its GOAL
// dependencies would allow overlap (paper §2.1).
func (s *Stream) Acquire(from simtime.Time, dur simtime.Duration) (start, end simtime.Time) {
	start = simtime.Max(from, s.free)
	end = start.Add(dur)
	s.free = end
	return start, end
}

// Complete reports operation h over at time at, through one event on the
// stream's lane. at must not precede the completion reported before it:
// that is the order the ring fires in, so breaking it would hand the
// scheduler the wrong handle — a backend bug, and a panic.
func (s *Stream) Complete(h Handle, at simtime.Time) {
	if at < s.last {
		panic(fmt.Sprintf("core: completion of rank %d op %d at %v precedes the stream's previous completion at %v", h.Rank(), h.Op(), at, s.last))
	}
	s.last = at
	s.pending.Push(h)
	s.lane.Schedule(at, s.fire)
}

func (s *Stream) complete() { s.over(s.pending.Pop(), s.lane.Now()) }

// Pending reports how many completions have been reported and not fired.
func (s *Stream) Pending() int { return s.pending.Len() }

// Streams are the compute streams of one rank, made on first use and
// addressed by GOAL's cpu id: ops on one stream serialise, ops on
// different streams of a rank proceed in parallel (paper §2.1). On the
// lane engine a rank's Streams are touched from that rank's lane only.
type Streams struct {
	lane  engine.Sim
	over  CompletionFunc
	byCPU map[int32]*Stream
}

// NewStreams creates the (empty) stream set of the rank running on lane.
func NewStreams(lane engine.Sim, over CompletionFunc) Streams {
	return Streams{lane: lane, over: over, byCPU: map[int32]*Stream{}}
}

// On returns the rank's stream cpu.
func (r *Streams) On(cpu int32) *Stream {
	s := r.byCPU[cpu]
	if s == nil {
		s = NewStream(r.lane, r.over)
		r.byCPU[cpu] = s
	}
	return s
}

// Pending sums Stream.Pending over the rank's streams.
func (r *Streams) Pending() int {
	n := 0
	for _, s := range r.byCPU {
		n += s.Pending()
	}
	return n
}

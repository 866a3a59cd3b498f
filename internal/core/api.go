// Package core defines the ATLAHS toolchain API (paper Fig 7): the
// backend interface through which the GOAL scheduler drives any network
// simulator, the event types for the three core operations (send, recv,
// calc), and the building blocks the backend implementations share:
// message matching (Matcher) and the serialising resources of a rank as
// event sources (Stream, Streams) — a compute stream or a NIC owns the time
// it is next free and a ring of the completions pending on it, and reports
// each through one handler bound when it was made, so completing an
// operation allocates nothing.
//
// The contract mirrors the paper's ATLAHS_API class: the scheduler issues
// operations as their GOAL dependencies resolve; the backend simulates them
// against its own model of the network and calls the completion callback
// ("eventOver") with the simulated completion time. Any simulator able to
// honour this contract can be plugged in; this repository wires three
// (LogGOPS message-level, packet-level, fluid flow-level).
package core

import (
	"atlahs/internal/engine"
	"atlahs/internal/simtime"
)

// Handle identifies an issued operation; the scheduler encodes (rank, op
// index) into it and decodes it when the completion arrives.
type Handle uint64

// MakeHandle packs a rank and per-rank op index.
func MakeHandle(rank int, op int32) Handle {
	return Handle(uint64(uint32(rank))<<32 | uint64(uint32(op)))
}

// Rank extracts the rank from a handle.
func (h Handle) Rank() int { return int(uint32(h >> 32)) }

// Op extracts the op index from a handle.
func (h Handle) Op() int32 { return int32(uint32(h)) }

// CompletionFunc is the eventOver callback: the backend reports that the
// operation identified by h semantically completed at time at.
type CompletionFunc func(h Handle, at simtime.Time)

// SendEvent asks the backend to transmit Size bytes from rank Src to rank
// Dst with the given tag, issued from compute stream CPU. The operation
// completes (for GOAL dependency purposes) when the sending resources are
// released — message-level backends release at local overhead completion
// for eager sends; the transfer itself feeds the destination's matcher.
type SendEvent struct {
	Handle Handle
	Src    int
	Dst    int
	Size   int64
	Tag    int32
	CPU    int32
}

// RecvEvent posts a receive at rank Dst for Size bytes from rank Src with
// the given tag (TagAny matches any tag from Src). The operation completes
// when a matching message has fully arrived and the receive overhead has
// been charged.
type RecvEvent struct {
	Handle Handle
	Dst    int
	Src    int
	Size   int64
	Tag    int32
	CPU    int32
}

// TagAny is the wildcard receive tag (mirrors goal.AnyTag).
const TagAny int32 = -1

// CalcEvent occupies rank Rank's compute stream CPU for Duration.
type CalcEvent struct {
	Handle   Handle
	Rank     int
	CPU      int32
	Duration simtime.Duration
}

// Backend is the ATLAHS simulator interface. Implementations are
// single-simulation objects: Setup is called exactly once before any
// operation is issued.
//
// A backend reports each operation over exactly once, from an engine event
// on the operation's rank lane — never from inside Send, Recv or Calc, which
// the scheduler calls from its own completion handling. The callback is the
// scheduler's own (sched.Run counts every completion and panics on a
// second one), unless sim.Run wraps the backend to stream completions to
// someone watching the run; the wrapper forwards every call unchanged. The
// built-in backends report completions through the Stream the operation
// ends on (Stream.Complete; the one exception is NetBackend's send, over at
// the event that hands the message to the network). sched.Run has already
// refused sizes and durations the simulated clock cannot hold, so a
// backend sees non-negative durations and times that add without wrapping.
type Backend interface {
	// Name identifies the backend ("lgs", "pkt", "fluid", ...).
	Name() string
	// Setup binds the backend to the engine and registers the completion
	// callback. nranks is the number of GOAL ranks (= simulated nodes).
	// sim.Run hands a parallel engine only to a backend that declares a
	// positive lookahead (LookaheadProvider); one whose state is shared
	// across ranks still asserts *engine.Engine here and returns an error
	// otherwise, since sched.Run's callers pick their own engine.
	Setup(nranks int, eng engine.Sim, over CompletionFunc) error
	// Send, Recv and Calc issue operations; completions arrive via the
	// callback registered in Setup, at simulated times >= the issue time.
	Send(ev SendEvent)
	Recv(ev RecvEvent)
	Calc(ev CalcEvent)
}

// LookaheadProvider is implemented by backends whose model guarantees a
// minimum cross-rank delay: no operation issued by rank r at time t can
// affect another rank before t + Lookahead(). Such backends can run on the
// parallel engine, which uses the bound as its conservative window width.
// A zero lookahead means the guarantee does not hold under the current
// parameters (e.g. LogGOPS with L = 0) and forces the serial engine.
type LookaheadProvider interface {
	Lookahead() simtime.Duration
}

// LookaheadOf reports the backend's cross-rank delay bound, or 0 when the
// backend does not provide one (so callers fall back to serial execution).
func LookaheadOf(be Backend) simtime.Duration {
	if lp, ok := be.(LookaheadProvider); ok {
		return lp.Lookahead()
	}
	return 0
}

// Package backend provides the ATLAHS network-simulation backends: the
// LogGOPSim-style message-level backend ("lgs", NewLGS) and NetBackend,
// which runs a schedule over a congestion-aware MessageNet. NewNet is the
// one constructor of a NetBackend: sim's registry factories call it with
// a closure that builds the packet-level network ("pkt", internal/pktnet)
// or the fluid flow-level one ("fluid", internal/fluid) from the config
// they have already resolved. Every backend implements core.Backend and
// is interchangeable from the scheduler's point of view — selecting the
// backend trades simulation speed against fidelity, exactly the choice the
// paper gives its users (message-level for speed, packet-level for
// accuracy under congestion; §6.2).
package backend

import (
	"fmt"
	"unsafe"

	"atlahs/internal/core"
	"atlahs/internal/engine"
	"atlahs/internal/simtime"
)

// LogGOPS holds the parameters of the LogGOPS model (paper §5): L wire
// latency, o CPU overhead per message, g inter-message NIC gap, G per-byte
// gap (inverse bandwidth), O per-byte CPU overhead, S rendezvous
// threshold. S = 0 disables rendezvous entirely (the paper's AI setup);
// S > 0 sends messages of at least S bytes with an RTS/CTS handshake.
type LogGOPS struct {
	L  simtime.Duration // latency
	O  simtime.Duration // per-message CPU overhead (paper's lowercase o)
	G  simtime.Duration // inter-message gap (paper's lowercase g)
	GB simtime.Duration // per-byte gap (paper's uppercase G), ps/byte
	OB simtime.Duration // per-byte CPU overhead (paper's uppercase O), ps/byte
	S  int64            // rendezvous threshold in bytes, 0 = all eager
}

// AIParams returns the LogGOPS parameters the paper measured for the Alps
// GH200 cluster (§5.2): L=3700ns, o=200ns, g=5ns, G=0.04ns/B, O=0, S=0.
func AIParams() LogGOPS {
	return LogGOPS{
		L:  3700 * simtime.Nanosecond,
		O:  200 * simtime.Nanosecond,
		G:  5 * simtime.Nanosecond,
		GB: 40 * simtime.Picosecond, // 0.04 ns/B = 25 GB/s
	}
}

// HPCParams returns the LogGOPS parameters measured with Netgauge on the
// CSCS test-bed cluster (§5.3): L=3000ns, o=6000ns, g=0, G=0.18ns/B, O=0,
// S=256000.
func HPCParams() LogGOPS {
	return LogGOPS{
		L:  3000 * simtime.Nanosecond,
		O:  6000 * simtime.Nanosecond,
		GB: 180 * simtime.Picosecond, // 0.18 ns/B ~ 56 Gbit/s
		S:  256000,
	}
}

// LGS is the LogGOPSim-style message-level backend. It models per-rank
// compute streams (o and O overheads), a single NIC per rank (g and G
// gaps), constant wire latency L, and eager/rendezvous protocols switched
// at S bytes. It is topology-oblivious: contention inside the fabric is
// invisible to it, which is exactly the limitation paper Fig 12
// demonstrates on oversubscribed topologies.
//
// All of its state is per-rank (streams, NIC, matcher queues, free list)
// and every cross-rank effect travels at least the wire latency L, so the
// backend can run on the parallel engine: each rank's events execute on
// that rank's lane and L is the declared lookahead.
//
// # Event sources, not closures
//
// Nothing is allocated per operation in steady state. Every event LGS
// schedules fires a handler that was bound when a long-lived object was
// made (htsim's shape, as in internal/pktnet), and the object holds what
// the handler needs.
//
// Completions have no record at all. Each one LGS reports comes off one of
// three chains that only move forward, so the completions pending on a
// chain are due in the order they were reported and a core.Stream — a free
// time, a ring of handles, one handler — carries them:
//
//   - a compute stream's occupancy (Stream.Acquire): a calc completes when
//     its reservation ends, an eager send when its overhead o + size·O
//     ends, a receive when the overhead charged at (or after) the payload's
//     arrival ends. All three are the end of the reservation just placed.
//   - the rank's NIC (a Stream of its own): a rendezvous send completes at
//     wireDone = inject + size·G, inside its reservation [inject, inject +
//     g + size·G), and the next injection starts no earlier than that
//     reservation's end. Eager sends reserve the NIC too and report
//     nothing on it.
//
// A message is one lgsMsg record from Send until its receive overhead has
// been charged. Its steps are strictly sequential — an eager message
// arrives and is matched; a rendezvous message's RTS arrives and is
// matched, its CTS travels back, its payload arrives — so one time field
// and one handler serve all of them. The record is taken from the free
// list of the lane that issues the send and returned to the list of the
// lane it dies on, the receiver's (both while running on that lane:
// ParEngine workers never share a list, and the hand-over between lanes is
// the engine's own cross-lane event delivery). A rank that sends about as
// much as it receives therefore stops allocating once its list holds its
// working depth.
//
// # Across runs
//
// Streams, NICs, message records and matcher queues outlive the run that
// made them. When a run has succeeded and its LGS has drained (Drained),
// sim.Run unbinds that LGS from the run's engine and callback (Unbind) and
// hands it to the next run's LGS (Adopt). That LGS's Setup rebinds every
// lane's streams and NIC to its own engine and completion callback, points
// the free records at itself and gives every lane back as many records as
// it has made (rebalance). A run like one before it then allocates nothing
// in LGS, and neither do the matcher's queues, whose storage per
// (destination, source) pair stays in place. An LGS that adopts nothing
// makes its state in Setup.
//
// The Schedule/ScheduleOn calls, their order and their times are those of
// the closure-per-event code this replaced, so every event keeps its
// (at, seq) / (at, schedAt, schedLane, schedSeq) key: TestLGSOutcomesPinned
// holds Runtime, Events and RankEnd to the values recorded before.
type LGS struct {
	P LogGOPS

	ranks []lgsRank
	match *core.Matcher[*lgsMsg, core.RecvEvent]
}

// lgsLane is everything one rank's lane owns.
type lgsLane struct {
	sim  engine.Sim
	cpus core.Streams
	nic  *core.Stream
	free []*lgsMsg // recycled records; only this lane pushes and pops
	made int       // records this lane allocated
}

// lgsRank pads a lane's state to whole cache lines so that neighbouring
// ranks on different workers do not false-share.
type lgsRank struct {
	lgsLane
	_ [64 - unsafe.Sizeof(lgsLane{})%64]byte
}

// lgsStep says what the event in flight for a message will find.
type lgsStep uint8

const (
	msgFree  lgsStep = iota // on a free list: no event may name the record
	msgEager                // the payload reaches the receiver at m.at
	msgRTS                  // rendezvous: the RTS reaches the receiver at m.at
	msgCTS                  // the CTS reaches the sender at m.at
	msgData                 // the payload reaches the receiver at m.at
)

// lgsMsg is one message, from its send until its receive overhead is
// charged. Between an arrival that found no receive and the Recv that
// takes it, the matcher holds the record (step msgEager or msgRTS).
type lgsMsg struct {
	b    *LGS
	send core.SendEvent
	at   simtime.Time   // when the step in flight lands (see lgsStep)
	recv core.RecvEvent // rendezvous: the matched receive, from CTS on
	step lgsStep
	fire engine.Handler // m.run
}

// NewLGS creates an LGS backend with the given model parameters.
func NewLGS(p LogGOPS) *LGS { return &LGS{P: p} }

// Name implements core.Backend.
func (b *LGS) Name() string { return "lgs" }

// Lookahead implements core.LookaheadProvider: no message reaches another
// rank sooner than the wire latency L.
func (b *LGS) Lookahead() simtime.Duration { return b.P.L }

// Setup implements core.Backend. Lanes, streams, record free lists and
// matcher queues taken over by Adopt are rebound to eng and over; whatever
// they lack for nranks ranks is made here.
func (b *LGS) Setup(nranks int, eng engine.Sim, over core.CompletionFunc) error {
	if nranks <= 0 {
		return fmt.Errorf("lgs: non-positive rank count %d", nranks)
	}
	if p := b.P; p.L < 0 || p.O < 0 || p.G < 0 || p.GB < 0 || p.OB < 0 || p.S < 0 {
		// Every chain above moves forward because every cost is >= 0.
		return fmt.Errorf("lgs: negative LogGOPS parameter in %+v", p)
	}
	if nranks > cap(b.ranks) {
		// Lanes past the last run's rank count keep their records and
		// streams for a later run.
		grown := make([]lgsRank, nranks)
		copy(grown, b.ranks[:cap(b.ranks)])
		b.ranks = grown
	}
	b.rebalance()
	b.ranks = b.ranks[:nranks]
	for i := range b.ranks {
		r := &b.ranks[i]
		ln := eng.Lane(i)
		r.sim = ln
		if r.nic == nil {
			r.cpus, r.nic = core.NewStreams(ln, over), core.NewStream(ln, over)
			continue
		}
		r.cpus.Rebind(ln, over)
		r.nic.Rebind(ln, over)
		for _, m := range r.free {
			m.b = b
		}
	}
	if b.match == nil {
		b.match = core.NewMatcher[*lgsMsg, core.RecvEvent](nranks)
	} else {
		b.match.Reset(nranks)
	}
	return nil
}

// rebalance hands every lane back as many free records as it has made. A
// record dies on its receiver's lane, so a run leaves each lane's list
// longer or shorter by what it received less what it sent; without this a
// lane that sends more than it receives would make that difference anew on
// every run its state serves. With it, a lane starts each run with the
// records its sends have needed so far, and a run like one before makes
// none. The lists balance exactly when the last run drained.
func (b *LGS) rebalance() {
	lanes := b.ranks[:cap(b.ranks)]
	j := 0 // the next lane that may hold more than it made
	for i := range lanes {
		d := &lanes[i]
		for len(d.free) < d.made {
			for j < len(lanes) && len(lanes[j].free) <= lanes[j].made {
				j++
			}
			if j == len(lanes) {
				return
			}
			src := &lanes[j]
			k := len(src.free) - 1
			d.free = append(d.free, src.free[k])
			src.free = src.free[:k]
		}
	}
}

// Adopt, called before Setup, takes over the lanes — streams, NIC and
// record free list per rank — and the matcher queues of prev, an LGS whose
// run drained and that will not be used again; prev is left with none.
func (b *LGS) Adopt(prev *LGS) {
	if prev == b {
		return
	}
	b.ranks, b.match = prev.ranks, prev.match
	prev.ranks, prev.match = nil, nil
}

// Unbind drops every lane's engine and completion callback, lanes past the
// last run's rank count included, so that an LGS kept for a later run holds
// nothing of the runs before it: not their engines, and not the callbacks
// that reach their schedules and observers. Setup binds them again. The
// free records on lanes past the last run's rank count name the LGS that
// made them, which Adopt has emptied.
func (b *LGS) Unbind() {
	lanes := b.ranks[:cap(b.ranks)]
	for i := range lanes {
		r := &lanes[i]
		r.sim = nil
		if r.nic != nil {
			r.cpus.Rebind(nil, nil)
			r.nic.Rebind(nil, nil)
		}
	}
}

// Drained implements core.Drainer: every message record a lane ever made
// is on a free list, no stream or NIC still has a completion pending, and
// the matcher holds neither a message nor a receive. Lanes past the last
// run's rank count are counted too: a record made on one lane may sit on
// another's list, whichever run made it. It costs a pass over the lanes,
// not over the records: only release puts a record on a list, and it
// marks the record free.
func (b *LGS) Drained() error {
	made, free := 0, 0
	lanes := b.ranks[:cap(b.ranks)]
	for i := range lanes {
		r := &lanes[i]
		made += r.made
		free += len(r.free)
		if n := r.cpus.Pending() + r.nic.Pending(); n != 0 {
			return fmt.Errorf("lgs: rank %d: %d completions still pending on its streams and NIC", i, n)
		}
	}
	if free != made {
		return fmt.Errorf("lgs: %d of %d message records on the free lists", free, made)
	}
	if b.match != nil {
		if a, p := b.match.Pending(); a != 0 || p != 0 {
			return fmt.Errorf("lgs: the matcher still holds %d messages and %d receives", a, p)
		}
	}
	return nil
}

// newMsg takes a record off rank's free list. Runs on rank's lane.
func (b *LGS) newMsg(rank int) *lgsMsg {
	r := &b.ranks[rank]
	if k := len(r.free); k > 0 {
		m := r.free[k-1]
		r.free = r.free[:k-1]
		return m
	}
	r.made++
	m := &lgsMsg{b: b}
	m.fire = m.run
	return m
}

// release returns a record to the free list of the lane it died on, the
// receiver's. Runs on that lane.
func (m *lgsMsg) release() {
	if m.step == msgFree {
		panic("lgs: message record released twice")
	}
	m.step = msgFree
	r := &m.b.ranks[m.send.Dst]
	r.free = append(r.free, m)
}

// Calc implements core.Backend: occupy the stream, complete at the end.
func (b *LGS) Calc(ev core.CalcEvent) {
	r := &b.ranks[ev.Rank]
	st := r.cpus.On(ev.CPU)
	_, end := st.Acquire(r.sim.Now(), ev.Duration)
	st.Complete(ev.Handle, end)
}

// Send implements core.Backend. Runs on the source rank's lane.
func (b *LGS) Send(ev core.SendEvent) {
	r := &b.ranks[ev.Src]
	st := r.cpus.On(ev.CPU)
	_, cpuEnd := st.Acquire(r.sim.Now(), b.P.O+simtime.Duration(ev.Size)*b.P.OB)
	m := b.newMsg(ev.Src)
	m.send = ev
	if b.P.S > 0 && ev.Size >= b.P.S {
		// Rendezvous: RTS after the CPU overhead; data moves once the
		// receive is posted. The send op completes when the payload has
		// been handed to the wire (see rendezvousData).
		m.step, m.at = msgRTS, cpuEnd.Add(b.P.L)
		r.sim.ScheduleOn(ev.Dst, m.at, m.fire)
		return
	}
	// Eager: op completes at CPU overhead end; payload is injected through
	// the NIC (g + size*G) and arrives L after the last byte leaves.
	wire := simtime.Duration(ev.Size) * b.P.GB
	inject, _ := r.nic.Acquire(cpuEnd, b.P.G+wire)
	m.step, m.at = msgEager, inject.Add(wire+b.P.L)
	st.Complete(ev.Handle, cpuEnd)
	r.sim.ScheduleOn(ev.Dst, m.at, m.fire)
}

// Recv implements core.Backend. Runs on the destination rank's lane.
func (b *LGS) Recv(ev core.RecvEvent) {
	if m, ok := b.match.Post(ev.Dst, ev.Src, ev.Tag, ev); ok {
		m.matched(ev)
	}
}

// run is the one handler of a message's events: the step says which hop
// has just landed, and on whose lane.
func (m *lgsMsg) run() {
	switch m.step {
	case msgEager, msgRTS: // at the receiver
		if rv, ok := m.b.match.Arrive(m.send.Dst, m.send.Src, m.send.Tag, m); ok {
			m.matched(rv)
		}
	case msgCTS: // back at the sender
		m.rendezvousData()
	case msgData: // at the receiver
		m.b.completeRecv(m.recv, m.at)
		m.release()
	default:
		panic("lgs: event fired on a recycled message record")
	}
}

// matched runs on the receiver's lane at the match time — the later of the
// message's (or RTS's) arrival and the receive's post. An eager payload is
// already here; a rendezvous message sends its CTS back to the sender's
// lane, where the NIC state lives.
func (m *lgsMsg) matched(rv core.RecvEvent) {
	b := m.b
	if m.step == msgEager {
		b.completeRecv(rv, m.at)
		m.release()
		return
	}
	dl := b.ranks[rv.Dst].sim
	m.recv = rv
	m.step, m.at = msgCTS, dl.Now().Add(b.P.L)
	dl.ScheduleOn(m.send.Src, m.at, m.fire)
}

// rendezvousData runs on the sender's lane when the CTS lands: the payload
// goes through the NIC, the send completes once the last byte is on the
// wire, and the data reaches the receiver L later.
func (m *lgsMsg) rendezvousData() {
	b := m.b
	r := &b.ranks[m.send.Src]
	wire := simtime.Duration(m.send.Size) * b.P.GB
	inject, _ := r.nic.Acquire(m.at, b.P.G+wire)
	wireDone := inject.Add(wire)
	m.step, m.at = msgData, wireDone.Add(b.P.L)
	r.nic.Complete(m.send.Handle, wireDone)
	r.sim.ScheduleOn(m.send.Dst, m.at, m.fire)
}

// completeRecv charges the receive overhead on the receive's stream
// starting at the data arrival (or post time, whichever is later — we are
// called at that instant, on the receiver's lane) and reports completion.
func (b *LGS) completeRecv(rv core.RecvEvent, arrival simtime.Time) {
	r := &b.ranks[rv.Dst]
	st := r.cpus.On(rv.CPU)
	_, end := st.Acquire(simtime.Max(arrival, r.sim.Now()), b.P.O+simtime.Duration(rv.Size)*b.P.OB)
	st.Complete(rv.Handle, end)
}

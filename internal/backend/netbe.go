package backend

import (
	"fmt"

	"atlahs/internal/core"
	"atlahs/internal/engine"
	"atlahs/internal/pktnet"
	"atlahs/internal/simtime"
)

// MessageNet is the transport contract shared by the congestion-aware
// networks (packet-level and fluid): inject a message, get a delivery-time
// callback. *pktnet.Network and *fluid.Network both satisfy it.
type MessageNet interface {
	// Send transfers size bytes from host src to host dst and calls
	// onDelivered at the simulated arrival time of the last byte.
	Send(src, dst int, size int64, onDelivered func(simtime.Time))
	// Hosts is the number of hosts the fabric connects.
	Hosts() int
	// Drained reports the first flow, packet or record the network still
	// holds once the engine has run dry.
	core.Drainer
}

// NetParams are the host-side overheads applied by the generic
// message-network backend: a fixed CPU overhead per send/recv mirroring
// the LogGOPS o parameter so that message-level and packet-level backends
// are calibrated identically (paper §5.2 configures htsim to "match these
// parameters used by ATLAHS LGS").
type NetParams struct {
	SendOverhead simtime.Duration
	RecvOverhead simtime.Duration
}

// netMsg / netRecv are matcher payloads.
type netMsg struct{ arrival simtime.Time }
type netRecv struct {
	ev   core.RecvEvent
	post simtime.Time
}

// NetBackend adapts any MessageNet into a core.Backend: compute streams
// and message matching are handled here, transfers are delegated to the
// network. All sends are eager (transfers start as soon as the send
// overhead is paid).
//
// Nothing is allocated per operation in steady state. Completions ride the
// compute stream they end on (core.Stream: a ring of handles and one bound
// handler, as in LGS); what a message has to remember between its send and
// its delivery lives in a pooled record whose handlers were bound when the
// record was made, so scheduling it creates no closure.
type NetBackend struct {
	name   string
	params NetParams
	mkNet  func(*engine.Engine) (MessageNet, error)

	net   MessageNet
	eng   *engine.Engine
	over  core.CompletionFunc
	cpus  []core.Streams // per rank
	match *core.Matcher[netMsg, netRecv]

	freeSends []*netSend
	sendsMade int // netSend records ever allocated
}

// Name implements core.Backend.
func (b *NetBackend) Name() string { return b.name }

// Setup implements core.Backend. The congestion-aware networks share fabric
// state across all ranks (queues, flows), so they cannot declare a
// lookahead and run only on the serial engine; a parallel engine is
// rejected here rather than racing later.
func (b *NetBackend) Setup(nranks int, eng engine.Sim, over core.CompletionFunc) error {
	serial, ok := eng.(*engine.Engine)
	if !ok {
		return fmt.Errorf("%s backend: shared network state requires the serial engine (no lookahead bound); run it with one worker", b.name)
	}
	net, err := b.mkNet(serial)
	if err != nil {
		return err
	}
	if h := net.Hosts(); h < nranks {
		return fmt.Errorf("%s backend: topology has %d hosts for %d ranks", b.name, h, nranks)
	}
	b.net = net
	b.eng = serial
	b.over = over
	b.cpus = make([]core.Streams, nranks)
	for i := range b.cpus {
		b.cpus[i] = core.NewStreams(serial, over)
	}
	b.match = core.NewMatcher[netMsg, netRecv](nranks)
	return nil
}

// Drained implements core.Drainer: no compute stream has a completion
// pending, the matcher holds neither a message nor a receive, every send
// record is back on the free list, and the network holds nothing either:
// pktnet no packet or flow record off its free lists, fluid no active flow
// and no message it has not completed.
func (b *NetBackend) Drained() error {
	for i := range b.cpus {
		if n := b.cpus[i].Pending(); n != 0 {
			return fmt.Errorf("%s backend: rank %d: %d completions still pending on its streams", b.name, i, n)
		}
	}
	if b.match != nil {
		if a, p := b.match.Pending(); a != 0 || p != 0 {
			return fmt.Errorf("%s backend: the matcher still holds %d messages and %d receives", b.name, a, p)
		}
	}
	if len(b.freeSends) != b.sendsMade {
		return fmt.Errorf("%s backend: %d of %d send records on the free list", b.name, len(b.freeSends), b.sendsMade)
	}
	if b.net == nil {
		return nil
	}
	return b.net.Drained()
}

// netSend is one message from the moment its send is issued until the
// network delivers it.
type netSend struct {
	b         *NetBackend
	ev        core.SendEvent
	cpuEnd    simtime.Time
	issue     engine.Handler     // s.issued: the send overhead is paid
	delivered func(simtime.Time) // s.arrived: the last byte reached ev.Dst
}

func (s *netSend) issued() {
	s.b.over(s.ev.Handle, s.cpuEnd)
	s.b.net.Send(s.ev.Src, s.ev.Dst, s.ev.Size, s.delivered)
}

// arrived runs exactly once per message (the MessageNet contract), which
// is what makes it the place to recycle the record.
func (s *netSend) arrived(at simtime.Time) {
	b, ev := s.b, s.ev
	b.freeSends = append(b.freeSends, s)
	if rv, ok := b.match.Arrive(ev.Dst, ev.Src, ev.Tag, netMsg{arrival: at}); ok {
		b.completeRecv(rv, at)
	}
}

// Calc implements core.Backend.
func (b *NetBackend) Calc(ev core.CalcEvent) {
	st := b.cpus[ev.Rank].On(ev.CPU)
	_, end := st.Acquire(b.eng.Now(), ev.Duration)
	st.Complete(ev.Handle, end)
}

// Send implements core.Backend: pay the send overhead on the issuing
// stream, then hand the message to the network.
func (b *NetBackend) Send(ev core.SendEvent) {
	var s *netSend
	if k := len(b.freeSends); k > 0 {
		s = b.freeSends[k-1]
		b.freeSends = b.freeSends[:k-1]
	} else {
		s = &netSend{b: b}
		s.issue, s.delivered = s.issued, s.arrived
		b.sendsMade++
	}
	s.ev = ev
	_, s.cpuEnd = b.cpus[ev.Src].On(ev.CPU).Acquire(b.eng.Now(), b.params.SendOverhead)
	b.eng.Schedule(s.cpuEnd, s.issue)
}

// Recv implements core.Backend.
func (b *NetBackend) Recv(ev core.RecvEvent) {
	rv := netRecv{ev: ev, post: b.eng.Now()}
	if msg, ok := b.match.Post(ev.Dst, ev.Src, ev.Tag, rv); ok {
		b.completeRecv(rv, msg.arrival)
	}
}

func (b *NetBackend) completeRecv(rv netRecv, arrival simtime.Time) {
	st := b.cpus[rv.ev.Dst].On(rv.ev.CPU)
	_, end := st.Acquire(simtime.Max(arrival, b.eng.Now()), b.params.RecvOverhead)
	st.Complete(rv.ev.Handle, end)
}

// DefaultNetParams mirrors the LGS AI overhead (o = 200 ns) so backends
// are comparable out of the box.
func DefaultNetParams() NetParams {
	return NetParams{
		SendOverhead: 200 * simtime.Nanosecond,
		RecvOverhead: 200 * simtime.Nanosecond,
	}
}

// NewNet creates the backend named name over the network mkNet builds on
// the run's serial engine: the packet-level ("pkt", a *pktnet.Network) or
// the fluid flow-level ("fluid", a *fluid.Network) one.
func NewNet(name string, params NetParams, mkNet func(*engine.Engine) (MessageNet, error)) *NetBackend {
	return &NetBackend{name: name, params: params, mkNet: mkNet}
}

// NetStats returns the packet-level counters (drops, trims, ...) after a
// run, or nil when the network is not packet-level — the paper's point in
// Fig 12: only packet-level backends can report these.
func (b *NetBackend) NetStats() *pktnet.Stats {
	pn, ok := b.net.(*pktnet.Network)
	if !ok {
		return nil
	}
	st := pn.Stats
	return &st
}

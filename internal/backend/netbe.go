package backend

import (
	"fmt"

	"atlahs/internal/core"
	"atlahs/internal/engine"
	"atlahs/internal/fluid"
	"atlahs/internal/pktnet"
	"atlahs/internal/simtime"
	"atlahs/internal/stats"
	"atlahs/internal/topo"
)

// MessageNet is the transport contract shared by the congestion-aware
// networks (packet-level and fluid): inject a message, get a delivery-time
// callback. *pktnet.Network and *fluid.Network both satisfy it.
type MessageNet interface {
	// Send transfers size bytes from host src to host dst and calls
	// onDelivered at the simulated arrival time of the last byte.
	Send(src, dst int, size int64, onDelivered func(simtime.Time))
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
	mkNet  func(eng *engine.Engine, nranks int) (MessageNet, error)

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
	net, err := b.mkNet(serial, nranks)
	if err != nil {
		return err
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
// record is back on the free list, and the network is drained if it can
// say so (pktnet's can; the fluid model keeps no records).
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
	if d, ok := b.net.(core.Drainer); ok {
		return d.Drained()
	}
	return nil
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

// --- packet-level backend ---------------------------------------------------

// PktConfig configures the packet-level backend.
type PktConfig struct {
	Net    pktnet.Config // Topo must cover the schedule's rank count
	Params NetParams
}

// DefaultNetParams mirrors the LGS AI overhead (o = 200 ns) so backends
// are comparable out of the box.
func DefaultNetParams() NetParams {
	return NetParams{
		SendOverhead: 200 * simtime.Nanosecond,
		RecvOverhead: 200 * simtime.Nanosecond,
	}
}

// NewPkt creates the packet-level ("ATLAHS htsim") backend. Stats gives
// access to drop/trim counters after the run.
func NewPkt(cfg PktConfig) *Pkt {
	b := &Pkt{}
	b.name = "pkt"
	b.params = cfg.Params
	b.mkNet = func(eng *engine.Engine, nranks int) (MessageNet, error) {
		if cfg.Net.Topo == nil {
			return nil, fmt.Errorf("pkt backend: nil topology")
		}
		if cfg.Net.Topo.NumHosts() < nranks {
			return nil, fmt.Errorf("pkt backend: topology has %d hosts for %d ranks", cfg.Net.Topo.NumHosts(), nranks)
		}
		n, err := pktnet.New(eng, cfg.Net)
		if err != nil {
			return nil, err
		}
		n.MCT = b.mct
		b.pn = n
		return n, nil
	}
	return b
}

// Pkt is the packet-level backend (NetBackend over pktnet).
type Pkt struct {
	NetBackend
	pn  *pktnet.Network
	mct *stats.Sample
}

// AttachMCT makes the underlying network record every message's completion
// time into sample (paper Fig 11's metric). Call before the scheduler's
// Setup runs.
func (b *Pkt) AttachMCT(sample *stats.Sample) { b.mct = sample }

// NetStats returns the packet-level counters (drops, trims, ...) after a
// run — the paper's point in Fig 12: only packet-level backends can report
// these.
func (b *Pkt) NetStats() pktnet.Stats {
	if b.pn == nil {
		return pktnet.Stats{}
	}
	return b.pn.Stats
}

// --- fluid backend -----------------------------------------------------------

// FluidConfig configures the fluid backend.
type FluidConfig struct {
	Net    fluid.Config
	Params NetParams
}

// NewFluid creates the fluid flow-level backend.
func NewFluid(cfg FluidConfig) *NetBackend {
	b := &NetBackend{name: "fluid", params: cfg.Params}
	b.mkNet = func(eng *engine.Engine, nranks int) (MessageNet, error) {
		if cfg.Net.Topo == nil {
			return nil, fmt.Errorf("fluid backend: nil topology")
		}
		if cfg.Net.Topo.NumHosts() < nranks {
			return nil, fmt.Errorf("fluid backend: topology has %d hosts for %d ranks", cfg.Net.Topo.NumHosts(), nranks)
		}
		return fluid.New(eng, cfg.Net)
	}
	return b
}

// FatTreeFor builds a two-level fat tree with at least nranks hosts,
// hostsPerToR hosts per ToR and the given number of core switches —
// convenience used by experiments and examples.
func FatTreeFor(nranks, hostsPerToR, cores int, spec topo.LinkSpec) (*topo.Topology, error) {
	hosts := nranks
	if rem := hosts % hostsPerToR; rem != 0 {
		hosts += hostsPerToR - rem
	}
	return topo.NewFatTree(topo.FatTreeConfig{
		Hosts: hosts, HostsPerToR: hostsPerToR, Cores: cores,
		HostLink: spec, UplinkLink: spec,
	})
}

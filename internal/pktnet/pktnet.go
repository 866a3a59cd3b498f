// Package pktnet is the packet-level network simulator of ATLAHS — the
// htsim-equivalent backend. It models MTU packetisation, per-port output
// queues with finite byte capacity, RED-style ECN marking between Kmin and
// Kmax (paper §5.1: 1 MiB buffers, 20%/80% thresholds), store-and-forward
// switching with per-hop serialisation and propagation delays, packet drops,
// NDP packet trimming, and per-packet window- or receiver-driven transports
// built on the congestion-control algorithms in internal/cc.
//
// The simulator exposes a message API: Send(src, dst, bytes, onDelivered)
// injects one message as an independent flow; the callback fires at the
// simulated time the last payload byte reaches the destination. Per-message
// completion times drive the storage case study (paper Fig 11); global
// drop/trim counters drive the packet-level statistics of Fig 12.
//
// # Event sources
//
// Like htsim's queues and pipes, the things that schedule events are
// long-lived objects, not closures made per hop. A port has two handlers
// bound once in New: txDone (the packet in port.cur has been serialised)
// and pipeOut (the oldest packet in port.pipe has crossed the link). A
// host's pull pacer has one (paceDone), a flow record one (onRTO, over
// flow.rtoQ). What a handler needs to know is in a FIFO rather than in a
// captured variable, and that is sound because FIFO order is firing order:
// a link's latency, a host's pull spacing and a flow's RTO are constants,
// simulated time never decreases, and the engine breaks timestamp ties by
// insertion order — so of two events pushed by the same source, the one
// pushed first fires first. Every eng.After call sits where the closure it
// replaced sat, so every event keeps its (time, sequence) key: results are
// bit-identical to the closure-per-hop simulator (TestPktOutcomesPinned),
// and steady state allocates nothing (TestPktSteadyStateAllocs).
//
// # Ownership of recycled records
//
// Packets and flow records come from per-Network free lists.
//
// A *packet is held by exactly one place at a time: a port queue (q, hq),
// port.cur, port.pipe, or the handler running on it. Whoever consumes it
// releases it: arrive, after the endpoint handler (onData, onAck, onNack,
// onPull) returns, and port.enqueue when it drops. Nothing keeps a packet
// after passing it to inject, which may drop it. freePacket zeroes the
// record, so a stale holder dereferences a nil flow and panics instead of
// corrupting another message; releasing twice panics.
//
// A *flow (one message: sender window state, per-packet flags, receiver
// reassembly state and the congestion controller) is named by its packets
// in the fabric, its armed RTO timers, its pull tokens in a hostRx.pullQ
// and the Send call starting it. flow.refs counts exactly those; every
// entry into flow code holds one of them until it returns. The record is
// recycled by unref when the message is delivered and refs reaches zero.
// For the window transports that also means fully acknowledged: control
// packets are never dropped, so every delivered data packet's ACK reaches
// the sender, and while one is in flight it holds a reference. A recycled
// record has nil paths and an empty flag slice, so stale use panics.
// TestLossyDeliveryAndRecycling checks, under drops and trims, that every
// record is back on its free list exactly once when the engine drains.
package pktnet

import (
	"fmt"

	"atlahs/internal/cc"
	"atlahs/internal/engine"
	"atlahs/internal/simtime"
	"atlahs/internal/stats"
	"atlahs/internal/topo"
	"atlahs/internal/xrand"
)

// Config parameterises a Network.
type Config struct {
	Topo     *topo.Topology
	MTU      int64             // payload bytes per packet (default 4096)
	Header   int64             // per-packet header bytes (default 64)
	CC       string            // "mprdma", "swift", "dctcp" or "ndp" (default "mprdma")
	KminFrac float64           // ECN mark start, fraction of buffer (default 0.2)
	KmaxFrac float64           // ECN mark certain, fraction of buffer (default 0.8)
	Selector topo.PathSelector // default: flow-hash ECMP; NDP defaults to spraying
	Seed     uint64
	RTO      simtime.Duration // retransmission timeout (default 4x worst-case base RTT)
}

func (c Config) withDefaults() Config {
	if c.MTU == 0 {
		c.MTU = 4096
	}
	if c.Header == 0 {
		c.Header = 64
	}
	if c.CC == "" {
		c.CC = "mprdma"
	}
	if c.KminFrac == 0 {
		c.KminFrac = 0.2
	}
	if c.KmaxFrac == 0 {
		c.KmaxFrac = 0.8
	}
	if c.Selector == nil {
		if cc.IsReceiverDriven(c.CC) {
			c.Selector = topo.PacketSpray{}
		} else {
			c.Selector = topo.FlowHashECMP{}
		}
	}
	return c
}

// Stats aggregates network-wide counters.
type Stats struct {
	PktsSent      uint64
	PktsDelivered uint64
	Drops         uint64
	Trims         uint64
	CtrlPkts      uint64
	Retransmits   uint64
	MsgsCompleted uint64
}

// Network is one packet-level simulation instance bound to an Engine.
type Network struct {
	eng    *engine.Engine
	cfg    Config
	topo   *topo.Topology
	ports  []port
	hosts  []hostRx // per host receiver state, indexed by host rank
	pairs  [][]pair // [src][dst]; rows and entries are filled on first use
	nextID uint64
	ndp    bool

	// Free lists of recycled records, and how many of each kind were ever
	// allocated: once the engine drains, every record is back on its list.
	freePkts  []*packet
	freeFlows []*flow
	pktsMade  int
	flowsMade int

	Stats Stats

	// MCT, when non-nil, records every message's completion time in
	// microseconds (injection to last-byte delivery) — the metric of the
	// storage case study, paper Fig 11.
	MCT *stats.Sample
}

// New creates a packet network over the topology in cfg, scheduling all
// events on eng.
func New(eng *engine.Engine, cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.Topo == nil {
		return nil, fmt.Errorf("pktnet: nil topology")
	}
	n := &Network{
		eng:  eng,
		cfg:  cfg,
		topo: cfg.Topo,
		ndp:  cc.IsReceiverDriven(cfg.CC),
	}
	if !n.ndp {
		// validate the algorithm name here: flows may then ignore the error
		if _, err := cc.New(cfg.CC, cc.Params{MTU: cfg.MTU}); err != nil {
			return nil, err
		}
	}
	rng := xrand.New(cfg.Seed ^ 0x41544c414853) // "ATLAHS"
	n.ports = make([]port, len(cfg.Topo.Links))
	for i := range n.ports {
		pt := &n.ports[i]
		link := cfg.Topo.Links[i]
		*pt = port{
			net:  n,
			link: link,
			kmin: int64(cfg.KminFrac * float64(link.BufBytes)),
			kmax: int64(cfg.KmaxFrac * float64(link.BufBytes)),
			rng:  rng.Split(),
		}
		pt.txDoneFn, pt.pipeOutFn = pt.txDone, pt.pipeOut
	}
	n.hosts = make([]hostRx, cfg.Topo.NumHosts())
	for h := range n.hosts {
		n.hosts[h].init(n, h)
	}
	n.pairs = make([][]pair, cfg.Topo.NumHosts())
	return n, nil
}

// Engine returns the event engine the network runs on.
func (n *Network) Engine() *engine.Engine { return n.eng }

// MTU returns the configured packet payload size.
func (n *Network) MTU() int64 { return n.cfg.MTU }

// Send injects a message from host src to host dst. onDelivered fires once
// at the simulated time the final payload byte arrives.
func (n *Network) Send(src, dst int, size int64, onDelivered func(simtime.Time)) {
	if src == dst {
		panic("pktnet: Send to self — intra-host transfers must be handled by the caller")
	}
	if size <= 0 {
		size = 1
	}
	n.nextID++
	id := n.nextID
	f := n.newFlow(id, src, dst, size, onDelivered) // holds one reference for this call
	f.start()
	f.unref()
}

// pair is what the network keeps per ordered host pair: the shortest paths
// (the shared Topology computes them but stores nothing) and, once a
// message has used the pair, the constants every later message reuses.
type pair struct {
	paths   [][]int
	baseRTT simtime.Duration // 0 until the first message src->dst
	rto     simtime.Duration
	bdp     int64 // bandwidth-delay product of the first path, bytes
}

func (n *Network) pairOf(src, dst int) *pair {
	row := n.pairs[src]
	if row == nil {
		row = make([]pair, len(n.pairs))
		n.pairs[src] = row
	}
	pr := &row[dst]
	if pr.paths == nil {
		pr.paths = n.topo.Paths(src, dst)
		if len(pr.paths) == 0 {
			panic(fmt.Sprintf("pktnet: no path %d->%d", src, dst))
		}
	}
	return pr
}

// flowPair returns the pair record a message src->dst runs on, with its
// timing constants filled, and the reverse paths its ACKs, NACKs and pulls
// take. The unloaded round-trip time is per hop serialisation of one MTU
// plus propagation on the first forward path, and header serialisation
// plus propagation back; the BDP divides it by the slowest forward link.
func (n *Network) flowPair(src, dst int) (fwd *pair, rev [][]int) {
	fwd = n.pairOf(src, dst)
	rev = n.pairOf(dst, src).paths
	if fwd.baseRTT != 0 {
		return fwd, rev
	}
	var rtt, slowest simtime.Duration
	for _, lid := range fwd.paths[0] {
		l := &n.topo.Links[lid]
		rtt += l.Latency + simtime.Duration(n.cfg.MTU+n.cfg.Header)*l.PsPerByte
		if l.PsPerByte > slowest {
			slowest = l.PsPerByte
		}
	}
	for _, lid := range rev[0] {
		l := &n.topo.Links[lid]
		rtt += l.Latency + simtime.Duration(n.cfg.Header)*l.PsPerByte
	}
	if slowest == 0 {
		slowest = 1
	}
	fwd.baseRTT = rtt
	fwd.bdp = int64(rtt) / int64(slowest)
	fwd.rto = n.cfg.RTO
	if fwd.rto <= 0 {
		fwd.rto = max(4*rtt, 20*simtime.Microsecond)
	}
	return fwd, rev
}

// pktKind discriminates wire packet types.
type pktKind uint8

const (
	pktData pktKind = iota
	pktAck
	pktNack
	pktPull
)

// packet is one unit on the wire. Control packets (ack/nack/pull) are
// header-sized and travel through the same ports as data but in the
// priority queue, mirroring htsim's control-priority behaviour.
type packet struct {
	flow    *flow
	kind    pktKind
	seq     int
	wire    int64 // bytes on the wire
	payload int64 // payload bytes carried (data only)
	ecn     bool
	trimmed bool
	path    []int
	hop     int
	sent    simtime.Time // data: transmit time (echoed by ack for RTT)
}

// newPacket takes a packet from the free list; it holds a reference to f
// until freePacket.
func (n *Network) newPacket(f *flow, kind pktKind, seq int, wire int64) *packet {
	var p *packet
	if k := len(n.freePkts); k > 0 {
		p = n.freePkts[k-1]
		n.freePkts = n.freePkts[:k-1]
	} else {
		p = new(packet)
		n.pktsMade++
	}
	p.flow, p.kind, p.seq, p.wire = f, kind, seq, wire
	f.refs++
	return p
}

// freePacket recycles p where it is consumed. The record is zeroed, so a
// holder that uses it afterwards dereferences a nil flow and panics.
func (n *Network) freePacket(p *packet) {
	f := p.flow
	if f == nil {
		panic("pktnet: packet released twice")
	}
	*p = packet{}
	n.freePkts = append(n.freePkts, p)
	f.unref()
}

// port is the egress queue of one unidirectional link and the link itself:
// a long-lived event source with two handlers bound once in New.
type port struct {
	net   *Network
	link  topo.Link
	q     engine.FIFO[*packet] // data FIFO
	hq    engine.FIFO[*packet] // priority queue: control + trimmed headers
	bytes int64                // queued data bytes (for capacity & ECN)
	cur   *packet              // being serialised; nil when the line is idle
	pipe  engine.FIFO[*packet] // propagating on the link, oldest first
	kmin  int64
	kmax  int64
	rng   *xrand.RNG

	txDoneFn  engine.Handler // pt.txDone
	pipeOutFn engine.Handler // pt.pipeOut
}

// enqueue places p on the port, applying capacity, trimming and ECN rules.
func (pt *port) enqueue(p *packet) {
	if p.kind != pktData || p.trimmed {
		// control and already-trimmed packets are never dropped
		pt.hq.Push(p)
		pt.kick()
		return
	}
	if pt.bytes+p.wire > pt.link.BufBytes {
		if pt.net.ndp {
			// NDP: trim payload, forward header in priority queue
			p.trimmed = true
			p.wire = pt.net.cfg.Header
			p.payload = 0
			pt.net.Stats.Trims++
			pt.hq.Push(p)
			pt.kick()
			return
		}
		pt.net.Stats.Drops++
		pt.net.freePacket(p)
		return
	}
	// RED-style ECN marking between kmin and kmax
	switch {
	case pt.bytes <= pt.kmin:
	case pt.bytes >= pt.kmax:
		p.ecn = true
	default:
		frac := float64(pt.bytes-pt.kmin) / float64(pt.kmax-pt.kmin)
		if pt.rng.Bool(frac) {
			p.ecn = true
		}
	}
	pt.bytes += p.wire
	pt.q.Push(p)
	pt.kick()
}

// kick starts transmitting the next packet if the line is idle.
func (pt *port) kick() {
	if pt.cur != nil {
		return
	}
	switch {
	case pt.hq.Len() > 0:
		pt.cur = pt.hq.Pop()
	case pt.q.Len() > 0:
		pt.cur = pt.q.Pop()
		pt.bytes -= pt.cur.wire
	default:
		return
	}
	pt.net.eng.After(simtime.Duration(pt.cur.wire)*pt.link.PsPerByte, pt.txDoneFn)
}

// txDone fires when the last bit of pt.cur has left the port: the packet
// starts propagating and the line takes the next one.
func (pt *port) txDone() {
	pt.pipe.Push(pt.cur)
	pt.cur = nil
	pt.net.eng.After(pt.link.Latency, pt.pipeOutFn)
	pt.kick()
}

// pipeOut fires once per propagating packet. The link latency is a
// constant, so packets leave the pipe in the order they entered it.
func (pt *port) pipeOut() { pt.net.arrive(pt.pipe.Pop()) }

// arrive handles a packet reaching the device at the end of its current
// link: forward to the next hop, or hand it to the endpoint, which
// consumes it.
func (n *Network) arrive(p *packet) {
	if p.hop < len(p.path) {
		next := p.path[p.hop]
		p.hop++
		n.ports[next].enqueue(p)
		return
	}
	f := p.flow
	switch p.kind {
	case pktData:
		n.hosts[f.dst].onData(p)
	case pktAck:
		f.onAck(p)
	case pktNack:
		f.onNack(p)
	case pktPull:
		f.onPull()
	}
	n.freePacket(p)
}

// inject starts a packet from a host along one of paths, picked by the
// selector. The first port may drop (and recycle) p: callers do not touch
// it afterwards.
func (n *Network) inject(paths [][]int, p *packet, pathChoice uint64) {
	p.path = paths[n.cfg.Selector.Pick(len(paths), p.flow.id, pathChoice)]
	p.hop = 1
	if p.kind == pktData {
		n.Stats.PktsSent++
	} else {
		n.Stats.CtrlPkts++
	}
	n.ports[p.path[0]].enqueue(p)
}

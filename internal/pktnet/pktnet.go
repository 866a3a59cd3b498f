// Package pktnet is the packet-level network simulator of ATLAHS — the
// htsim-equivalent backend. It models packetisation into 4 KiB payloads
// behind 64-byte headers, per-port output queues with finite byte capacity,
// RED-style ECN marking between Kmin and Kmax (paper §5.1: 1 MiB buffers,
// 20%/80% thresholds), store-and-forward switching with per-hop
// serialisation and propagation delays, packet drops, NDP packet trimming,
// and per-packet window- or receiver-driven transports built on the
// congestion-control algorithms in internal/cc. These parameters are the
// paper's and are constants; a Network is configured only by its topology,
// its congestion control and its seed. NDP sprays a flow's packets over all
// shortest paths, the window transports hash each flow onto one (ECMP), and
// the retransmission timeout is max(4 RTT, 20 µs) of the pair's unloaded
// round trip.
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
	Topo *topo.Topology
	CC   string // "mprdma", "swift", "dctcp" or "ndp" (default "mprdma")
	Seed uint64
}

// The packet format and the ECN thresholds of the paper's packet backend
// (§5.1).
const (
	mtu      = 4096 // payload bytes per packet
	header   = 64   // header bytes per packet
	kminFrac = 0.2  // ECN marking starts, fraction of the port buffer
	kmaxFrac = 0.8  // ECN marking certain, fraction of the port buffer
)

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
	if cfg.CC == "" {
		cfg.CC = "mprdma"
	}
	if cfg.Topo == nil {
		return nil, fmt.Errorf("pktnet: nil topology")
	}
	for i, l := range cfg.Topo.Links {
		if l.BufBytes < mtu+header {
			return nil, fmt.Errorf("pktnet: link %d buffers %d B, less than one %d B packet", i, l.BufBytes, mtu+header)
		}
	}
	n := &Network{
		eng:  eng,
		cfg:  cfg,
		topo: cfg.Topo,
		ndp:  cc.IsReceiverDriven(cfg.CC),
	}
	if !n.ndp {
		// validate the algorithm name here: flows may then ignore the error
		if _, err := cc.New(cfg.CC, cc.Params{MTU: mtu}); err != nil {
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
			kmin: int64(kminFrac * float64(link.BufBytes)),
			kmax: int64(kmaxFrac * float64(link.BufBytes)),
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

// Drained implements core.Drainer once the engine has run dry: every packet
// and flow record ever allocated is on its free list and cleared, and no
// port, pipe or pull queue still holds anything.
func (n *Network) Drained() error {
	if got := len(n.freePkts); got != n.pktsMade {
		return fmt.Errorf("pktnet: %d of %d packets on the free list", got, n.pktsMade)
	}
	for _, p := range n.freePkts {
		if p.flow != nil || p.path != nil || p.wire != 0 {
			return fmt.Errorf("pktnet: free packet not cleared: %+v", *p)
		}
	}
	if got := len(n.freeFlows); got != n.flowsMade {
		return fmt.Errorf("pktnet: %d of %d flow records on the free list", got, n.flowsMade)
	}
	for _, f := range n.freeFlows {
		if f.refs != 0 || f.delivered || f.pair != nil || f.onDone != nil || len(f.pk) != 0 || f.rtoQ.Len() != 0 {
			return fmt.Errorf("pktnet: free flow record not cleared: refs %d delivered %v pk %d rtoQ %d", f.refs, f.delivered, len(f.pk), f.rtoQ.Len())
		}
	}
	for i := range n.ports {
		if pt := &n.ports[i]; pt.cur != nil || pt.q.Len()+pt.hq.Len()+pt.pipe.Len() != 0 || pt.bytes != 0 {
			return fmt.Errorf("pktnet: port %d not idle: cur %v, %d+%d queued, %d in flight, %d bytes", i, pt.cur != nil, pt.q.Len(), pt.hq.Len(), pt.pipe.Len(), pt.bytes)
		}
	}
	for h := range n.hosts {
		if n.hosts[h].pullQ.Len() != 0 || n.hosts[h].pacing {
			return fmt.Errorf("pktnet: host %d pull pacer not idle", h)
		}
	}
	return nil
}

// Hosts is the number of hosts the topology connects.
func (n *Network) Hosts() int { return n.topo.NumHosts() }

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
		rtt += l.Latency + (mtu+header)*l.PsPerByte
		if l.PsPerByte > slowest {
			slowest = l.PsPerByte
		}
	}
	for _, lid := range rev[0] {
		l := &n.topo.Links[lid]
		rtt += l.Latency + header*l.PsPerByte
	}
	if slowest == 0 {
		slowest = 1
	}
	fwd.baseRTT = rtt
	fwd.bdp = int64(rtt) / int64(slowest)
	fwd.rto = max(4*rtt, 20*simtime.Microsecond)
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
			p.wire = header
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

// inject starts a packet from a host along one of paths: NDP sprays a
// flow's packets over all of them, the window transports hash each flow
// onto one. The first port may drop (and recycle) p: callers do not touch
// it afterwards.
func (n *Network) inject(paths [][]int, p *packet, pathChoice uint64) {
	if n.ndp {
		p.path = paths[topo.Spray(len(paths), p.flow.id, pathChoice)]
	} else {
		p.path = paths[topo.ECMP(len(paths), p.flow.id)]
	}
	p.hop = 1
	if p.kind == pktData {
		n.Stats.PktsSent++
	} else {
		n.Stats.CtrlPkts++
	}
	n.ports[p.path[0]].enqueue(p)
}

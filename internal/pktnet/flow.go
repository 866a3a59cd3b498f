package pktnet

import (
	"atlahs/internal/cc"
	"atlahs/internal/engine"
	"atlahs/internal/simtime"
)

// pktState is the per-packet state of a message, sender and receiver side
// in one record.
type pktState struct {
	epoch    uint16 // incremented per (re)transmission; stale RTOs ignored
	acked    bool
	inRtx    bool
	received bool
}

// inlinePkts is how many packets a message may have and still keep its
// per-packet state inside the flow record. Storage traffic is almost all
// one-packet messages.
const inlinePkts = 4

// rtoEntry is one armed retransmission timer.
type rtoEntry struct {
	seq   int
	epoch uint16
}

// flow is one message in flight: identity, sender-side transport state and
// the receiver's reassembly state. Window-based algorithms (MPRDMA, Swift,
// DCTCP) pace sends against a congestion window; NDP blasts an initial
// window and then sends one packet per receiver pull, retransmitting
// trimmed packets on NACK.
//
// Records are recycled. refs counts everything that names the flow: each
// of its packets in the fabric, each armed RTO, each pull token queued at
// the receiver, and the Send call that is starting it. The flow returns
// to the free list when it is delivered and refs reaches zero (see the
// package doc).
type flow struct {
	net    *Network
	id     uint64
	dst    int
	size   int64
	npkts  int
	onDone func(simtime.Time)
	born   simtime.Time

	pair *pair   // src->dst: data paths, baseRTT, BDP, RTO
	rev  [][]int // dst->src paths for ACKs, NACKs and pulls
	refs int

	pk  []pktState // per-packet flags; aliases pk0 for short messages
	pk0 [inlinePkts]pktState

	// receiver state
	rcount    int // distinct packets received
	delivered bool

	// window transport state
	ctrl     cc.Controller
	nextSeq  int
	inflight int64
	rtx      engine.FIFO[int]
	rtoQ     engine.FIFO[rtoEntry] // armed timers in firing order: the RTO is a constant
	rtoFn    engine.Handler        // f.onRTO

	// NDP transport state
	grants int

	pathCounter uint64
}

// newFlow takes a record from the free list and initialises it for one
// message. The caller owns one reference.
func (n *Network) newFlow(id uint64, src, dst int, size int64, onDone func(simtime.Time)) *flow {
	var f *flow
	if k := len(n.freeFlows); k > 0 {
		f = n.freeFlows[k-1]
		n.freeFlows = n.freeFlows[:k-1]
	} else {
		f = &flow{net: n}
		f.pk = f.pk0[:0]
		f.rtoFn = f.onRTO
		n.flowsMade++
	}
	f.id, f.dst, f.size, f.onDone = id, dst, size, onDone
	f.born = n.eng.Now()
	f.pair, f.rev = n.flowPair(src, dst)
	f.refs = 1
	f.npkts = int((size + mtu - 1) / mtu)
	if cap(f.pk) < f.npkts {
		f.pk = make([]pktState, f.npkts)
	} else {
		f.pk = f.pk[:f.npkts]
		clear(f.pk)
	}
	f.rcount, f.nextSeq, f.inflight, f.grants, f.pathCounter = 0, 0, 0, 0, 0
	f.rtx.Clear() // NDP may leave retransmissions it was never granted
	return f
}

// unref drops one reference and recycles the record when it was the last
// and the message is delivered. The record is cleared so that a stale
// holder panics (nil paths, empty flag slice) instead of corrupting the
// next message.
func (f *flow) unref() {
	f.refs--
	if f.refs < 0 {
		panic("pktnet: flow released twice")
	}
	if f.refs > 0 || !f.delivered {
		return
	}
	f.id, f.onDone, f.pair, f.rev, f.delivered = 0, nil, nil, nil, false
	f.pk = f.pk[:0]
	f.net.freeFlows = append(f.net.freeFlows, f)
}

func (f *flow) payloadOf(seq int) int64 {
	if seq == f.npkts-1 {
		if rem := f.size - int64(seq)*mtu; rem > 0 {
			return rem
		}
	}
	return mtu
}

func (f *flow) start() {
	if f.net.ndp {
		f.grants = max(int(f.pair.bdp/mtu), 1)
		f.pumpNDP()
		return
	}
	params := cc.Params{MTU: mtu, BaseRTT: f.pair.baseRTT, BDP: f.pair.bdp}
	if f.ctrl == nil {
		ctrl, err := cc.New(f.net.cfg.CC, params)
		if err != nil {
			panic(err) // validated at Network construction
		}
		f.ctrl = ctrl
	} else {
		f.ctrl.Reset(params)
	}
	f.pumpWindow()
}

// nextWork pops the next sequence number to transmit: retransmissions
// first, then fresh data. Returns -1 when nothing is pending.
func (f *flow) nextWork() int {
	for f.rtx.Len() > 0 {
		seq := f.rtx.Pop()
		f.pk[seq].inRtx = false
		if !f.pk[seq].acked {
			f.net.Stats.Retransmits++
			return seq
		}
	}
	if f.nextSeq < f.npkts {
		seq := f.nextSeq
		f.nextSeq++
		return seq
	}
	return -1
}

func (f *flow) sendData(seq int) {
	f.pk[seq].epoch++
	payload := f.payloadOf(seq)
	p := f.net.newPacket(f, pktData, seq, payload+header)
	p.payload = payload
	p.sent = f.net.eng.Now()
	f.net.inject(f.pair.paths, p, f.pathCounter)
	f.pathCounter++
}

// --- window transport ------------------------------------------------------

func (f *flow) pumpWindow() {
	for f.inflight < f.ctrl.Window() {
		seq := f.nextWork()
		if seq < 0 {
			return
		}
		f.inflight += f.payloadOf(seq)
		f.sendData(seq)
		f.armRTO(seq)
	}
}

func (f *flow) armRTO(seq int) {
	f.rtoQ.Push(rtoEntry{seq: seq, epoch: f.pk[seq].epoch})
	f.refs++
	f.net.eng.After(f.pair.rto, f.rtoFn)
}

// onRTO fires once per armed timer. All of a flow's timers run for the
// same duration, so they fire in the order they were armed.
func (f *flow) onRTO() {
	e := f.rtoQ.Pop()
	if st := &f.pk[e.seq]; !st.acked && st.epoch == e.epoch && !st.inRtx {
		// Packet (or its ACK) was lost: release window and requeue.
		f.inflight -= f.payloadOf(e.seq)
		st.inRtx = true
		f.rtx.Push(e.seq)
		f.ctrl.OnTimeout(f.net.eng.Now())
		f.pumpWindow()
	}
	f.unref()
}

// onAck processes an acknowledgement (window transports only).
func (f *flow) onAck(p *packet) {
	if f.pk[p.seq].acked {
		return
	}
	f.pk[p.seq].acked = true
	f.inflight -= f.payloadOf(p.seq)
	if f.inflight < 0 {
		f.inflight = 0
	}
	now := f.net.eng.Now()
	f.ctrl.OnAck(now, cc.Feedback{
		AckedBytes: f.payloadOf(p.seq),
		ECNMarked:  p.ecn,
		RTT:        now.Sub(p.sent),
	})
	f.pumpWindow()
}

// --- NDP transport ----------------------------------------------------------

func (f *flow) pumpNDP() {
	for f.grants > 0 {
		seq := f.nextWork()
		if seq < 0 {
			return
		}
		f.grants--
		f.sendData(seq)
	}
}

// onNack queues a trimmed packet for retransmission (sent on next pull).
func (f *flow) onNack(p *packet) {
	if f.pk[p.seq].acked || f.pk[p.seq].inRtx {
		return
	}
	f.pk[p.seq].inRtx = true
	f.rtx.Push(p.seq)
	f.pumpNDP()
}

// onPull grants the sender one more packet.
func (f *flow) onPull() {
	f.grants++
	f.pumpNDP()
}

// --- receiver ----------------------------------------------------------------

// hostRx is the per-host receive side: the NDP pull pacer. (Reassembly
// state lives in the flow record.) All flows destined to one host share
// the pull pacer, which is what lets NDP share the access link fairly
// under incast.
type hostRx struct {
	net     *Network
	pullQ   engine.FIFO[*flow]
	pacing  bool
	spacing simtime.Duration
	paceFn  engine.Handler // h.paceDone
}

func (h *hostRx) init(n *Network, host int) {
	h.net = n
	h.paceFn = h.paceDone
	// Pull spacing = serialisation time of a full MTU on the host access
	// link, so granted packets arrive at most at link rate.
	h.spacing = (mtu + header) * 40
	if out := n.topo.OutLinks(n.topo.HostDevice(host)); len(out) > 0 {
		h.spacing = (mtu + header) * n.topo.Links[out[0]].PsPerByte
	}
}

// onData handles a data packet (possibly trimmed to a header) arriving at
// its destination host.
func (h *hostRx) onData(p *packet) {
	n, f := h.net, p.flow
	if p.trimmed {
		// NDP: payload was trimmed in the fabric; NACK it and request more.
		n.inject(f.rev, n.newPacket(f, pktNack, p.seq, header), f.pathCounter)
		f.pathCounter++
		if !f.delivered {
			h.requestPull(f)
		}
		return
	}
	st := &f.pk[p.seq]
	first := !st.received
	if first {
		st.received = true
		f.rcount++
		n.Stats.PktsDelivered++
	}
	if n.ndp {
		if f.rcount < f.npkts {
			h.requestPull(f)
		}
	} else {
		// ACK every arrival (duplicates included) so spurious
		// retransmissions still converge; sender dedups.
		ack := n.newPacket(f, pktAck, p.seq, header)
		ack.ecn, ack.sent = p.ecn, p.sent
		n.inject(f.rev, ack, f.pathCounter)
		f.pathCounter++
	}
	if first && f.rcount == f.npkts {
		f.delivered = true
		n.Stats.MsgsCompleted++
		now := n.eng.Now()
		if n.MCT != nil {
			n.MCT.AddDuration(now.Sub(f.born))
		}
		if f.onDone != nil {
			f.onDone(now)
		}
	}
}

// requestPull enqueues a pull token for f on this host's paced pull queue.
func (h *hostRx) requestPull(f *flow) {
	f.refs++
	h.pullQ.Push(f)
	h.pump()
}

func (h *hostRx) pump() {
	if h.pacing || h.pullQ.Len() == 0 {
		return
	}
	f := h.pullQ.Pop()
	h.net.inject(f.rev, h.net.newPacket(f, pktPull, 0, header), f.pathCounter)
	f.pathCounter++
	f.unref() // the token; the pull packet holds its own reference
	h.pacing = true
	h.net.eng.After(h.spacing, h.paceFn)
}

func (h *hostRx) paceDone() {
	h.pacing = false
	h.pump()
}

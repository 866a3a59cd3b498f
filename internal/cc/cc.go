// Package cc implements the congestion-control algorithms evaluated in the
// paper's case studies: MPRDMA (sender-based, per-packet ECN; Lu et al.,
// NSDI'18), Swift (delay-based; Kumar et al., SIGCOMM'20) and DCTCP
// (ECN-fraction EWMA), and names NDP (receiver-driven with packet
// trimming; Handley et al., SIGCOMM'17).
//
// MPRDMA, Swift and DCTCP are window controllers plugged into the
// packet-level sender transport; NDP is receiver-driven and implemented as
// its own transport mode in internal/pktnet, selected by the name "ndp"
// (IsReceiverDriven).
//
// The models are deliberately compact: they keep the decision structure
// that produces each algorithm's characteristic behaviour — MPRDMA reacts
// to per-packet ECN marks wherever they happen, Swift folds all congestion
// into a single end-to-end delay measurement (its weakness in multi-hop
// congestion, paper Fig 1), NDP recovers trimmed packets via receiver
// pulls but cannot see in-network congestion far from the receiver
// (paper Fig 11).
package cc

import (
	"fmt"
	"math"
	"strings"

	"atlahs/internal/simtime"
)

func sqrtF(x float64) float64 {
	if x < 1 {
		return 1
	}
	return math.Sqrt(x)
}

// Feedback describes one acknowledgement delivered to a window controller.
type Feedback struct {
	AckedBytes int64
	ECNMarked  bool
	RTT        simtime.Duration
}

// Controller adjusts a congestion window in bytes based on per-ACK
// feedback. Implementations are single-flow and not safe for concurrent
// use (the event engine is single-threaded).
type Controller interface {
	// Name identifies the algorithm ("mprdma", "swift", ...).
	Name() string
	// Window returns the current congestion window in bytes (>= 1 MTU).
	Window() int64
	// OnAck processes feedback for one acknowledged packet at time now.
	OnAck(now simtime.Time, fb Feedback)
	// OnTimeout reacts to a retransmission timeout.
	OnTimeout(now simtime.Time)
	// Reset returns the controller to the state New gives it for p, so one
	// controller can serve a sequence of flows without reallocation.
	Reset(p Params)
}

// Params configures a window controller.
type Params struct {
	MTU     int64            // packet payload size in bytes
	BaseRTT simtime.Duration // unloaded round-trip time of the path
	BDP     int64            // bandwidth-delay product in bytes
}

// startPkts is the initial window in packets: one BDP, at least one packet.
func (p Params) startPkts() float64 {
	start := float64(p.BDP) / float64(p.MTU)
	if start < 1 {
		start = 1
	}
	return start
}

// maxWin is the window cap: four BDPs, or 256 packets without a BDP.
func (p Params) maxWin() int64 {
	if p.BDP > 0 {
		return 4 * p.BDP
	}
	return 256 * p.MTU
}

// New returns the controller for the given algorithm name. Valid names:
// "mprdma", "swift", "dctcp". "ndp" is not a window controller; the
// packet simulator instantiates its receiver-driven transport instead.
func New(name string, p Params) (Controller, error) {
	if p.MTU <= 0 {
		return nil, fmt.Errorf("cc: MTU must be positive")
	}
	var c Controller
	switch strings.ToLower(name) {
	case "mprdma":
		c = &mprdma{}
	case "swift":
		c = &swift{}
	case "dctcp":
		c = &dctcp{}
	case "ndp":
		return nil, fmt.Errorf("cc: ndp is receiver-driven; use the pktnet NDP transport")
	default:
		return nil, fmt.Errorf("cc: unknown algorithm %q", name)
	}
	c.Reset(p)
	return c, nil
}

// IsReceiverDriven reports whether the named algorithm runs as a
// receiver-driven transport rather than a sender window controller.
func IsReceiverDriven(name string) bool { return strings.EqualFold(name, "ndp") }

// ---------------------------------------------------------------------------
// MPRDMA: per-packet ECN AIMD. On every marked ACK the window shrinks by
// half a packet; on every unmarked ACK it grows by 1/cwnd packets
// (additive increase of one packet per RTT). This per-packet reaction is
// what the paper contrasts with DCTCP's per-window averaging.

type mprdma struct {
	p        Params
	cwndPkts float64
}

func (m *mprdma) Reset(p Params) { *m = mprdma{p: p, cwndPkts: p.startPkts()} }

func (m *mprdma) Name() string { return "mprdma" }

func (m *mprdma) Window() int64 {
	w := int64(m.cwndPkts * float64(m.p.MTU))
	if w < m.p.MTU {
		w = m.p.MTU
	}
	if max := m.p.maxWin(); w > max {
		w = max
	}
	return w
}

func (m *mprdma) OnAck(_ simtime.Time, fb Feedback) {
	if fb.ECNMarked {
		m.cwndPkts -= 0.5
	} else {
		m.cwndPkts += 1 / m.cwndPkts
	}
	m.clamp()
}

func (m *mprdma) OnTimeout(simtime.Time) {
	m.cwndPkts = 1
}

func (m *mprdma) clamp() {
	if m.cwndPkts < 1 {
		m.cwndPkts = 1
	}
	if max := float64(m.p.maxWin()) / float64(m.p.MTU); m.cwndPkts > max {
		m.cwndPkts = max
	}
}

// ---------------------------------------------------------------------------
// Swift: delay-based control with a single end-to-end target delay. Below
// target: additive increase. Above target: multiplicative decrease
// proportional to the delay excess, at most once per RTT.

const (
	swiftAI     = 1.0  // packets of additive increase per RTT
	swiftBeta   = 0.8  // MD gain
	swiftMaxMD  = 0.5  // maximum single decrease factor
	swiftTgtMul = 1.25 // target delay = BaseRTT * swiftTgtMul
	// swiftFSAlpha is the flow-scaling gain: the target grows by
	// alpha/sqrt(cwnd) RTTs as the window shrinks, letting N incast flows
	// share a queue stably (Kumar et al. §3.2).
	swiftFSAlpha = 4.0
)

type swift struct {
	p           Params
	cwndPkts    float64
	target      simtime.Duration
	lastDecease simtime.Time
}

func (s *swift) Reset(p Params) {
	*s = swift{
		p:        p,
		cwndPkts: p.startPkts(),
		target:   simtime.Duration(float64(p.BaseRTT) * swiftTgtMul),
	}
}

func (s *swift) Name() string { return "swift" }

func (s *swift) Window() int64 {
	w := int64(s.cwndPkts * float64(s.p.MTU))
	if w < s.p.MTU {
		w = s.p.MTU
	}
	if max := s.p.maxWin(); w > max {
		w = max
	}
	return w
}

func (s *swift) OnAck(now simtime.Time, fb Feedback) {
	// flow scaling: small windows tolerate proportionally more delay
	target := s.target + simtime.Duration(float64(s.p.BaseRTT)*swiftFSAlpha/sqrtF(s.cwndPkts))
	if fb.RTT <= target {
		s.cwndPkts += swiftAI / s.cwndPkts
	} else if now.Sub(s.lastDecease) >= s.p.BaseRTT {
		// Swift folds all congestion along the path into this one delay
		// sample: it cannot tell which hop is congested.
		excess := float64(fb.RTT-target) / float64(fb.RTT)
		md := 1 - swiftBeta*excess
		if md < 1-swiftMaxMD {
			md = 1 - swiftMaxMD
		}
		s.cwndPkts *= md
		s.lastDecease = now
	}
	s.clamp()
}

func (s *swift) OnTimeout(now simtime.Time) {
	s.cwndPkts = 1
	s.lastDecease = now
}

func (s *swift) clamp() {
	if s.cwndPkts < 1 {
		s.cwndPkts = 1
	}
	if max := float64(s.p.maxWin()) / float64(s.p.MTU); s.cwndPkts > max {
		s.cwndPkts = max
	}
}

// ---------------------------------------------------------------------------
// DCTCP: per-window ECN fraction with EWMA gain g; decrease once per
// window by alpha/2, additive increase of one packet per RTT otherwise.

const dctcpG = 1.0 / 16

type dctcp struct {
	p          Params
	cwndPkts   float64
	alpha      float64
	ackedBytes int64
	markedB    int64
	windowEnd  int64 // acked-byte count at which the current window closes
}

func (d *dctcp) Reset(p Params) {
	*d = dctcp{p: p, cwndPkts: p.startPkts()}
	d.windowEnd = d.Window()
}

func (d *dctcp) Name() string { return "dctcp" }

func (d *dctcp) Window() int64 {
	w := int64(d.cwndPkts * float64(d.p.MTU))
	if w < d.p.MTU {
		w = d.p.MTU
	}
	if max := d.p.maxWin(); w > max {
		w = max
	}
	return w
}

func (d *dctcp) OnAck(_ simtime.Time, fb Feedback) {
	d.ackedBytes += fb.AckedBytes
	if fb.ECNMarked {
		d.markedB += fb.AckedBytes
	}
	if d.ackedBytes >= d.windowEnd {
		frac := 0.0
		if d.ackedBytes > 0 {
			frac = float64(d.markedB) / float64(d.ackedBytes)
		}
		d.alpha = (1-dctcpG)*d.alpha + dctcpG*frac
		if d.markedB > 0 {
			d.cwndPkts *= 1 - d.alpha/2
		} else {
			d.cwndPkts += 1
		}
		d.clamp()
		d.ackedBytes = 0
		d.markedB = 0
		d.windowEnd = d.Window()
	}
}

func (d *dctcp) OnTimeout(simtime.Time) {
	d.cwndPkts = 1
	d.clamp()
	d.ackedBytes = 0
	d.markedB = 0
	d.windowEnd = d.Window()
}

func (d *dctcp) clamp() {
	if d.cwndPkts < 1 {
		d.cwndPkts = 1
	}
	if max := float64(d.p.maxWin()) / float64(d.p.MTU); d.cwndPkts > max {
		d.cwndPkts = max
	}
}

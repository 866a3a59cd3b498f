// Package fluid is a flow-level network emulator with max-min fair
// bandwidth sharing. It plays two roles in this reproduction:
//
//  1. It is the "testbed": the paper validates ATLAHS predictions against
//     measured runtimes from real clusters (Alps, a CSCS fat-tree system)
//     which we do not have. The fluid emulator is an *independently
//     modelled* system — progressive-filling fair rates rather than
//     LogGOPS gaps or per-packet FIFO queues — so comparing the ATLAHS
//     backends against it reproduces the logic of the validation
//     experiments (Figs 8 and 10): do cheap models track an independent
//     ground truth within a few percent?
//
//  2. It doubles as a third ATLAHS backend (congestion-aware
//     message-level), demonstrating the backend interface's flexibility.
//
// Each message is a fluid flow along one ECMP-selected shortest path.
// Whenever a flow starts or completes, rates are recomputed with
// progressive filling: all unfrozen flows grow at the same rate until some
// link saturates, flows on saturated links freeze, and filling continues.
// An optional per-message overhead and deterministic jitter emulate
// software-stack latency and system noise.
//
// The filling works over live links only. Every link keeps the list of
// active flows that cross it, maintained as flows start and complete, so
// a round walks just the links still carrying an unfrozen flow, and only
// the member lists of the links that saturated in that round. The result
// is the same to the bit as filling by walking every link and every
// unfrozen flow's path each round: the links a round subtracts from and
// the smallest share it finds do not depend on the order they are
// visited, and a flow's rate, the shares of the rounds it stayed unfrozen
// summed from zero in round order, is exactly the running sum of the
// shares at the round it froze.
package fluid

import (
	"fmt"
	"math"

	"atlahs/internal/engine"
	"atlahs/internal/simtime"
	"atlahs/internal/topo"
	"atlahs/internal/xrand"
)

// Config parameterises the emulator.
type Config struct {
	Topo *topo.Topology
	// Overhead is a fixed software latency added to every message; New
	// refuses a negative one.
	Overhead simtime.Duration
	// JitterFrac adds a deterministic pseudo-random extra delay per message
	// uniform in [0, JitterFrac] of the message's transfer time, emulating
	// system noise. 0 disables jitter; New refuses a fraction outside
	// [0, 1].
	JitterFrac float64
	Seed       uint64
}

// Network is a fluid-flow simulation instance bound to an Engine.
type Network struct {
	eng    *engine.Engine
	cfg    Config
	topo   *topo.Topology
	paths  [][][][]int // [src][dst] -> shortest paths; rows and entries filled on first use
	active []*flow
	epoch  uint64 // invalidates stale wake events
	last   simtime.Time
	rng    *xrand.RNG
	nextID uint64 // messages sent

	// members[l] lists the active flows that cross link l, in no order;
	// a flow is at members[f.links[i]][f.slot[i]].
	members [][]*flow
	// Progressive-filling scratch, reused by every recompute: per link,
	// the capacity left and the count of unfrozen flows crossing it; the
	// live links (those still carrying an unfrozen flow) and the links
	// that saturated in the current round.
	avail []float64
	cnt   []int
	live  []int
	sat   []int

	// filled, when set, sees every recompute that filled, with the wake it
	// scheduled. Only the package's tests set it, to hold the filling to
	// its reference.
	filled func(wake simtime.Time)

	// MsgsCompleted counts delivered messages.
	MsgsCompleted uint64
}

type flow struct {
	id        uint64
	remaining float64 // bytes
	rate      float64 // bytes per picosecond
	links     []int
	slot      []int            // the flow's index in each of its links' member lists
	frozen    uint64           // epoch of the last recompute that froze the flow
	tail      simtime.Duration // propagation + overhead + jitter, applied at completion
	onDone    func(simtime.Time)
}

// New creates a fluid network over cfg.Topo scheduling on eng.
func New(eng *engine.Engine, cfg Config) (*Network, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("fluid: nil topology")
	}
	if cfg.Overhead < 0 {
		return nil, fmt.Errorf("fluid: negative overhead %v", cfg.Overhead)
	}
	if !(cfg.JitterFrac >= 0 && cfg.JitterFrac <= 1) {
		return nil, fmt.Errorf("fluid: jitter fraction %v outside [0, 1]", cfg.JitterFrac)
	}
	nl := len(cfg.Topo.Links)
	return &Network{
		eng:     eng,
		cfg:     cfg,
		topo:    cfg.Topo,
		paths:   make([][][][]int, cfg.Topo.NumHosts()),
		rng:     xrand.New(cfg.Seed ^ 0x464c554944), // "FLUID"
		members: make([][]*flow, nl),
		avail:   make([]float64, nl),
		cnt:     make([]int, nl),
	}, nil
}

// Drained implements core.Drainer once the engine has run dry: no flow is
// active, no link lists a member, and every message sent was completed.
func (n *Network) Drained() error {
	if len(n.active) != 0 {
		return fmt.Errorf("fluid: %d flows still active", len(n.active))
	}
	for l, m := range n.members {
		if len(m) != 0 {
			return fmt.Errorf("fluid: link %d still lists %d flows", l, len(m))
		}
	}
	if n.nextID != n.MsgsCompleted {
		return fmt.Errorf("fluid: %d messages sent, %d completed", n.nextID, n.MsgsCompleted)
	}
	return nil
}

// pathsOf returns the shortest paths src->dst from the network's own
// table. The Topology may be shared with concurrent runs and is never
// written; what this run has computed lives here.
func (n *Network) pathsOf(src, dst int) [][]int {
	row := n.paths[src]
	if row == nil {
		row = make([][][]int, len(n.paths))
		n.paths[src] = row
	}
	if row[dst] == nil {
		row[dst] = n.topo.Paths(src, dst)
	}
	return row[dst]
}

// Hosts is the number of hosts the topology connects.
func (n *Network) Hosts() int { return n.topo.NumHosts() }

// Send injects a message from host src to host dst; onDelivered fires at
// the simulated delivery time of the last byte.
func (n *Network) Send(src, dst int, size int64, onDelivered func(simtime.Time)) {
	if src == dst {
		panic("fluid: Send to self — intra-host transfers must be handled by the caller")
	}
	if size <= 0 {
		size = 1
	}
	paths := n.pathsOf(src, dst)
	if len(paths) == 0 {
		panic(fmt.Sprintf("fluid: no path %d->%d", src, dst))
	}
	n.nextID++
	f := &flow{
		id:        n.nextID,
		remaining: float64(size),
		onDone:    onDelivered,
	}
	f.links = paths[topo.ECMP(len(paths), f.id)]
	var prop simtime.Duration
	for _, lid := range f.links {
		prop += n.topo.Links[lid].Latency
	}
	f.tail = prop + n.cfg.Overhead
	if n.cfg.JitterFrac > 0 {
		// deterministic per-message jitter proportional to ideal transfer time
		ideal := float64(size) * float64(n.slowestLink(f.links))
		f.tail += simtime.Duration(n.rng.Float64() * n.cfg.JitterFrac * ideal)
	}
	n.advance()
	n.active = append(n.active, f)
	f.slot = make([]int, len(f.links))
	for i, lid := range f.links {
		f.slot[i] = len(n.members[lid])
		n.members[lid] = append(n.members[lid], f)
	}
	n.recompute()
}

// leave swap-removes f from the member lists of its links.
func (n *Network) leave(f *flow) {
	for i, lid := range f.links {
		m := n.members[lid]
		last := len(m) - 1
		if j := f.slot[i]; j != last {
			g := m[last]
			m[j] = g
			for k, gl := range g.links {
				if gl == lid {
					g.slot[k] = j
					break
				}
			}
		}
		m[last] = nil
		n.members[lid] = m[:last]
	}
}

func (n *Network) slowestLink(links []int) simtime.Duration {
	var worst simtime.Duration = 1
	for _, lid := range links {
		if g := n.topo.Links[lid].PsPerByte; g > worst {
			worst = g
		}
	}
	return worst
}

// advance progresses all active flows to the current time.
func (n *Network) advance() {
	now := n.eng.Now()
	dt := float64(now.Sub(n.last))
	if dt > 0 {
		for _, f := range n.active {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
	n.last = now
}

// recompute completes any flows that have drained, performs progressive
// filling over the rest, and schedules the next wake-up.
func (n *Network) recompute() {
	n.epoch++
	// complete drained flows (in insertion order for determinism)
	kept := n.active[:0]
	for _, f := range n.active {
		if f.remaining <= 0.5 {
			n.MsgsCompleted++
			n.leave(f)
			if f.onDone != nil {
				done := f.onDone
				at := n.eng.Now().Add(f.tail)
				n.eng.Schedule(at, func() { done(at) })
			}
		} else {
			kept = append(kept, f)
		}
	}
	n.active = kept
	if len(n.active) == 0 {
		return
	}
	n.fill()

	// schedule wake at the earliest completion
	soonest := math.Inf(1)
	for _, f := range n.active {
		if f.rate > 0 {
			if t := f.remaining / f.rate; t < soonest {
				soonest = t
			}
		}
	}
	if math.IsInf(soonest, 1) {
		// no flow can progress: only possible with zero-capacity links
		panic("fluid: active flows with zero aggregate rate")
	}
	epoch := n.epoch
	wake := n.eng.Now().Add(simtime.Duration(math.Ceil(soonest)))
	n.eng.Schedule(wake, func() {
		if n.epoch != epoch {
			return
		}
		n.advance()
		n.recompute()
	})
	if n.filled != nil {
		n.filled(wake)
	}
}

// fill sets every active flow's max-min fair rate by progressive filling
// over the live links. Each round raises the unfrozen flows by the
// smallest fair share a live link offers, takes what they now use from
// every live link, and freezes the members of the links that saturated.
func (n *Network) fill() {
	epoch := n.epoch
	avail, cnt := n.avail, n.cnt
	live := n.live[:0]
	share := math.Inf(1)
	for l, m := range n.members {
		if len(m) == 0 {
			continue
		}
		avail[l] = 1 / float64(n.topo.Links[l].PsPerByte)
		cnt[l] = len(m)
		live = append(live, l)
		if s := avail[l] / float64(cnt[l]); s < share {
			share = s
		}
	}
	level := 0.0 // the summed shares: the rate of a flow frozen this round
	unfrozen := len(n.active)
	for {
		if math.IsInf(share, 1) || share < 1e-15 {
			share = 0
		}
		level += share
		sat := n.sat[:0]
		for _, l := range live {
			avail[l] -= share * float64(cnt[l])
			if avail[l] <= 1e-12 {
				sat = append(sat, l)
			}
		}
		n.sat = sat
		if share == 0 {
			sat = live // a zero share freezes every unfrozen flow
		}
		for _, l := range sat {
			for _, f := range n.members[l] {
				if f.frozen == epoch {
					continue
				}
				f.frozen = epoch
				f.rate = level
				unfrozen--
				for _, lid := range f.links {
					cnt[lid]--
				}
			}
		}
		if unfrozen == 0 {
			break
		}
		// keep the links that still carry an unfrozen flow, and find the
		// next round's share among them
		share = math.Inf(1)
		k := 0
		for _, l := range live {
			if c := cnt[l]; c > 0 {
				live[k] = l
				k++
				if s := avail[l] / float64(c); s < share {
					share = s
				}
			}
		}
		live = live[:k]
	}
	n.live = live
}

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
	// Overhead is a fixed software latency added to every message.
	Overhead simtime.Duration
	// JitterFrac adds a deterministic pseudo-random extra delay per message
	// uniform in [0, JitterFrac] of the message's transfer time, emulating
	// system noise. 0 disables jitter.
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
	nextID uint64

	// MsgsCompleted counts delivered messages.
	MsgsCompleted uint64
}

type flow struct {
	id        uint64
	remaining float64 // bytes
	rate      float64 // bytes per picosecond
	links     []int
	tail      simtime.Duration // propagation + overhead + jitter, applied at completion
	onDone    func(simtime.Time)
}

// New creates a fluid network over cfg.Topo scheduling on eng.
func New(eng *engine.Engine, cfg Config) (*Network, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("fluid: nil topology")
	}
	return &Network{
		eng:   eng,
		cfg:   cfg,
		topo:  cfg.Topo,
		paths: make([][][][]int, cfg.Topo.NumHosts()),
		rng:   xrand.New(cfg.Seed ^ 0x464c554944), // "FLUID"
	}, nil
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
	n.recompute()
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

// recompute performs progressive filling over all active flows, completes
// any that have drained, and schedules the next wake-up.
func (n *Network) recompute() {
	n.epoch++
	// complete drained flows (in insertion order for determinism)
	kept := n.active[:0]
	for _, f := range n.active {
		if f.remaining <= 0.5 {
			n.MsgsCompleted++
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

	// progressive filling
	nl := len(n.topo.Links)
	avail := make([]float64, nl)
	cnt := make([]int, nl)
	for i := range avail {
		avail[i] = 1 / float64(n.topo.Links[i].PsPerByte)
	}
	for _, f := range n.active {
		f.rate = 0
		for _, lid := range f.links {
			cnt[lid]++
		}
	}
	frozen := make([]bool, len(n.active))
	unfrozen := len(n.active)
	for unfrozen > 0 {
		share := math.Inf(1)
		for l := 0; l < nl; l++ {
			if cnt[l] > 0 {
				if s := avail[l] / float64(cnt[l]); s < share {
					share = s
				}
			}
		}
		if math.IsInf(share, 1) || share < 1e-15 {
			share = 0
		}
		for l := 0; l < nl; l++ {
			if cnt[l] > 0 {
				avail[l] -= share * float64(cnt[l])
			}
		}
		// freeze flows crossing any saturated link
		for i, f := range n.active {
			if frozen[i] {
				continue
			}
			f.rate += share
			saturated := share == 0
			for _, lid := range f.links {
				if avail[lid] <= 1e-12 {
					saturated = true
					break
				}
			}
			if saturated {
				frozen[i] = true
				unfrozen--
				for _, lid := range f.links {
					cnt[lid]--
				}
			}
		}
	}

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
}

package sim

import (
	"fmt"

	"atlahs/internal/backend"
	"atlahs/internal/core"
	"atlahs/internal/engine"
	"atlahs/internal/fluid"
	"atlahs/internal/pktnet"
	"atlahs/internal/topo"
)

// LGSConfig configures the message-level LogGOPS backend. The zero value
// selects the paper's AI parameters.
type LGSConfig struct {
	// Params is the LogGOPS parameter set (AIParams, HPCParams, or custom).
	// The zero value means AIParams().
	Params LogGOPS
}

// PktConfig configures the packet-level backend. The zero value builds a
// non-oversubscribed fat tree with 4 hosts per ToR, default links, MPRDMA
// congestion control and LGS-matched host overheads.
type PktConfig struct {
	// Topo is an explicit fabric; when nil a two-level fat tree is sized to
	// the schedule from the fields below.
	Topo *Topology
	// HostsPerToR is the fat-tree radix (default 4, at most 4096).
	HostsPerToR int
	// Oversub is the ToR:core oversubscription ratio (default 1). It is an
	// error for Oversub to exceed HostsPerToR — that would need fewer than
	// one core switch.
	Oversub int
	// Cores, when positive, sets the core-switch count directly and
	// overrides Oversub; it may not exceed HostsPerToR.
	Cores int
	// Link parameterises every fabric link; zero means DefaultLinkSpec().
	// PsPerByte must be positive, Latency not negative, and BufBytes must
	// hold one whole packet (4 160 B: 4 096 of payload and a 64 B header).
	Link LinkSpec
	// CC selects congestion control: "mprdma", "swift", "dctcp" or "ndp"
	// (default "mprdma").
	CC string
	// Seed seeds the network; 0 inherits Spec.Seed.
	Seed uint64
	// Params are the host-side send/recv overheads; zero means
	// DefaultNetParams().
	Params NetParams
	// MCT, when non-nil, accumulates every message's completion time
	// (paper Fig 11's metric).
	MCT *Sample
}

// FluidConfig configures the flow-level fluid backend. The zero value
// matches PktConfig's topology defaults with no software overhead or
// jitter.
type FluidConfig struct {
	// Topo is an explicit fabric; when nil a two-level fat tree is sized to
	// the schedule from the fields below.
	Topo *Topology
	// HostsPerToR is the fat-tree radix (default 4, at most 4096).
	HostsPerToR int
	// Oversub is the ToR:core oversubscription ratio (default 1); it may
	// not exceed HostsPerToR.
	Oversub int
	// Cores, when positive, overrides Oversub with a direct core count; it
	// may not exceed HostsPerToR.
	Cores int
	// Link parameterises every fabric link; zero means DefaultLinkSpec().
	// PsPerByte must be positive and Latency not negative.
	Link LinkSpec
	// Overhead is a fixed software latency added to every message; a
	// negative one is an error.
	Overhead Duration
	// JitterFrac adds deterministic pseudo-random per-message delay in
	// [0, JitterFrac] of the transfer time (0 disables); a fraction
	// outside [0, 1] is an error.
	JitterFrac float64
	// Seed seeds the jitter; 0 inherits Spec.Seed.
	Seed uint64
	// Params are the host-side send/recv overheads; zero means
	// DefaultNetParams().
	Params NetParams
}

// maxHostsPerToR bounds a fat tree's radix. The fabric's hosts, links and
// per-link state grow with HostsPerToR whatever the schedule's rank
// count, so an unbounded radix lets a 200-byte wire spec allocate
// gigabytes; the largest radix this repository configures is 16.
const maxHostsPerToR = 4096

// FatTree builds a two-level fat tree covering ranks hosts: hostsPerToR
// hosts per ToR (0 = 4, at most 4096) and either an explicit core-switch
// count (0 < cores <= hostsPerToR) or one derived from the ToR:core
// oversubscription ratio (oversub, 0 = 1). An oversubscription ratio
// higher than hostsPerToR is rejected — it would call for less than one
// core switch — instead of being clamped to a topology the caller did
// not ask for. With both bounds the fabric stays proportional to ranks.
func FatTree(ranks, hostsPerToR, oversub, cores int, link LinkSpec) (*Topology, error) {
	if hostsPerToR <= 0 {
		hostsPerToR = 4
	}
	if hostsPerToR > maxHostsPerToR {
		return nil, fmt.Errorf("sim: %d hosts per ToR exceeds the fat-tree radix limit of %d", hostsPerToR, maxHostsPerToR)
	}
	if cores > hostsPerToR {
		return nil, fmt.Errorf("sim: %d core switches exceed %d hosts per ToR (oversubscription below 1:1); lower Cores or raise HostsPerToR", cores, hostsPerToR)
	}
	if cores <= 0 {
		if oversub <= 0 {
			oversub = 1
		}
		if oversub > hostsPerToR {
			return nil, fmt.Errorf("sim: oversubscription %d:1 exceeds %d hosts per ToR (fewer than one core switch); lower -oversub or raise -hosts-per-tor", oversub, hostsPerToR)
		}
		cores = hostsPerToR / oversub
	}
	if link == (LinkSpec{}) {
		link = DefaultLinkSpec()
	}
	hosts := ranks
	if rem := hosts % hostsPerToR; rem != 0 {
		hosts += hostsPerToR - rem
	}
	return topo.NewFatTree(topo.FatTreeConfig{Hosts: hosts, HostsPerToR: hostsPerToR, Cores: cores, Link: link})
}

// fabricTopo resolves the shared topology fields of PktConfig/FluidConfig.
func fabricTopo(explicit *Topology, ranks, hostsPerToR, oversub, cores int, link LinkSpec) (*Topology, error) {
	if explicit != nil {
		return explicit, nil
	}
	return FatTree(ranks, hostsPerToR, oversub, cores, link)
}

func init() {
	Register(Definition{Name: "lgs", Parallel: true, New: newLGS,
		NewConfig: func() any { return new(LGSConfig) }})
	Register(Definition{Name: "pkt", New: newPkt,
		NewConfig: func() any { return new(PktConfig) }})
	Register(Definition{Name: "fluid", New: newFluid,
		NewConfig: func() any { return new(FluidConfig) }})
}

func newLGS(cfg any, _ Env) (core.Backend, error) {
	c, err := ConfigAs[LGSConfig]("lgs", cfg)
	if err != nil {
		return nil, err
	}
	if c.Params == (LogGOPS{}) {
		c.Params = AIParams()
	}
	return backend.NewLGS(c.Params), nil
}

func newPkt(cfg any, env Env) (core.Backend, error) {
	c, err := ConfigAs[PktConfig]("pkt", cfg)
	if err != nil {
		return nil, err
	}
	tp, err := fabricTopo(c.Topo, env.Ranks, c.HostsPerToR, c.Oversub, c.Cores, c.Link)
	if err != nil {
		return nil, err
	}
	if c.CC == "" {
		c.CC = "mprdma"
	}
	if c.Seed == 0 {
		c.Seed = env.Seed
	}
	if c.Params == (NetParams{}) {
		c.Params = DefaultNetParams()
	}
	return backend.NewNet("pkt", c.Params, func(eng *engine.Engine) (backend.MessageNet, error) {
		n, err := pktnet.New(eng, pktnet.Config{Topo: tp, CC: c.CC, Seed: c.Seed})
		if err != nil {
			return nil, err
		}
		n.MCT = c.MCT
		return n, nil
	}), nil
}

func newFluid(cfg any, env Env) (core.Backend, error) {
	c, err := ConfigAs[FluidConfig]("fluid", cfg)
	if err != nil {
		return nil, err
	}
	tp, err := fabricTopo(c.Topo, env.Ranks, c.HostsPerToR, c.Oversub, c.Cores, c.Link)
	if err != nil {
		return nil, err
	}
	if c.Seed == 0 {
		c.Seed = env.Seed
	}
	if c.Params == (NetParams{}) {
		c.Params = DefaultNetParams()
	}
	return backend.NewNet("fluid", c.Params, func(eng *engine.Engine) (backend.MessageNet, error) {
		return fluid.New(eng, fluid.Config{Topo: tp, Overhead: c.Overhead, JitterFrac: c.JitterFrac, Seed: c.Seed})
	}), nil
}

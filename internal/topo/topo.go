// Package topo models the physical network topologies used by the
// packet-level and fluid backends: two-level fat trees with configurable
// oversubscription (the paper's validation and case studies use them at
// 1:1, 4:1 and 8:1 ToR:Core ratios).
//
// A topology is a directed graph of devices (hosts and switches) connected
// by unidirectional links; every full-duplex cable is two Links.
// Paths(src, dst) enumerates all shortest paths as link-index sequences;
// ECMP picks among them by flow hash, Spray per packet. A Topology is
// read-only once its constructor returns, so any number of concurrent
// simulations may share one; each network keeps the paths it has asked
// for in a table of its own.
package topo

import (
	"fmt"

	"atlahs/internal/simtime"
	"atlahs/internal/xrand"
)

// DeviceKind distinguishes hosts from switches.
type DeviceKind uint8

// Device kinds.
const (
	Host DeviceKind = iota
	Switch
)

// Device is a node in the topology graph.
type Device struct {
	ID   int
	Kind DeviceKind
	Name string
}

// Link is a unidirectional connection between two devices. Bytes take
// PsPerByte picoseconds each to serialise plus Latency propagation delay.
type Link struct {
	ID        int
	From, To  int // device IDs
	Latency   simtime.Duration
	PsPerByte simtime.Duration
	// Egress queue capacity in bytes at the From device for this link.
	BufBytes int64
}

// Bandwidth parameters shared by topology constructors. NewFatTree
// refuses a PsPerByte that is not positive and a negative Latency.
type LinkSpec struct {
	Latency   simtime.Duration
	PsPerByte simtime.Duration
	BufBytes  int64
}

// Topology is an immutable network graph: no field is written after the
// constructor returns.
type Topology struct {
	Name    string
	Devices []Device
	Links   []Link
	HostIDs []int // device IDs of hosts, indexed by host rank
	adjOut  [][]int
}

// NumHosts returns the number of host endpoints.
func (t *Topology) NumHosts() int { return len(t.HostIDs) }

// HostDevice returns the device ID of host index h.
func (t *Topology) HostDevice(h int) int { return t.HostIDs[h] }

func (t *Topology) addDevice(kind DeviceKind, name string) int {
	id := len(t.Devices)
	t.Devices = append(t.Devices, Device{ID: id, Kind: kind, Name: name})
	t.adjOut = append(t.adjOut, nil)
	if kind == Host {
		t.HostIDs = append(t.HostIDs, id)
	}
	return id
}

func (t *Topology) addDuplex(a, b int, spec LinkSpec) {
	t.addLink(a, b, spec)
	t.addLink(b, a, spec)
}

func (t *Topology) addLink(from, to int, spec LinkSpec) {
	id := len(t.Links)
	t.Links = append(t.Links, Link{
		ID: id, From: from, To: to,
		Latency: spec.Latency, PsPerByte: spec.PsPerByte, BufBytes: spec.BufBytes,
	})
	t.adjOut[from] = append(t.adjOut[from], id)
}

// OutLinks returns the IDs of links leaving device d.
func (t *Topology) OutLinks(d int) []int { return t.adjOut[d] }

// Paths computes every shortest path from host src to host dst as a slice
// of link IDs (a BFS per call: callers on a hot path keep the result).
// src == dst yields nil.
func (t *Topology) Paths(src, dst int) [][]int {
	if src == dst {
		return nil
	}
	return t.computePaths(t.HostIDs[src], t.HostIDs[dst])
}

// computePaths runs BFS from srcDev and enumerates all shortest link paths
// to dstDev.
func (t *Topology) computePaths(srcDev, dstDev int) [][]int {
	n := len(t.Devices)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[srcDev] = 0
	queue := []int{srcDev}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v == dstDev {
			continue
		}
		for _, lid := range t.adjOut[v] {
			w := t.Links[lid].To
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	if dist[dstDev] == -1 {
		return nil
	}
	// Backtrack all shortest paths via DFS along dist-decreasing edges.
	var paths [][]int
	var cur []int
	var dfs func(dev int)
	dfs = func(dev int) {
		if dev == dstDev {
			path := make([]int, len(cur))
			copy(path, cur)
			paths = append(paths, path)
			return
		}
		for _, lid := range t.adjOut[dev] {
			w := t.Links[lid].To
			if dist[w] == dist[dev]+1 && dist[w] <= dist[dstDev] {
				cur = append(cur, lid)
				dfs(w)
				cur = cur[:len(cur)-1]
			}
		}
	}
	dfs(srcDev)
	return paths
}

// ECMP picks, among npaths shortest paths, the one every packet of a flow
// takes: standard ECMP 5-tuple hashing.
func ECMP(npaths int, flowID uint64) int {
	if npaths <= 1 {
		return 0
	}
	return int(xrand.Hash64(flowID) % uint64(npaths))
}

// Spray picks, among npaths shortest paths, the one packet seq of a flow
// takes, spreading consecutive packets over all of them (NDP-style
// per-packet load balancing).
func Spray(npaths int, flowID, seq uint64) int {
	if npaths <= 1 {
		return 0
	}
	return int(xrand.Hash64(flowID^(seq*0x9e3779b97f4a7c15)) % uint64(npaths))
}

// FatTreeConfig describes a two-level fat tree: Hosts are distributed over
// ToR switches, ToRs connect to Core switches. Oversubscription is the
// ratio of host-facing to core-facing ToR bandwidth, achieved by varying
// the number of core uplinks.
type FatTreeConfig struct {
	Hosts       int
	HostsPerToR int
	Cores       int      // number of core switches (= uplinks per ToR)
	Link        LinkSpec // every link: host<->ToR and ToR<->core
}

// Validate reports why NewFatTree would refuse cfg, or nil, without
// building anything.
func (cfg FatTreeConfig) Validate() error {
	if cfg.Hosts <= 0 || cfg.HostsPerToR <= 0 || cfg.Cores <= 0 {
		return fmt.Errorf("topo: fat tree needs positive hosts, hostsPerToR, cores")
	}
	if cfg.Hosts%cfg.HostsPerToR != 0 {
		return fmt.Errorf("topo: %d hosts not divisible by %d hosts/ToR", cfg.Hosts, cfg.HostsPerToR)
	}
	if cfg.Link.PsPerByte <= 0 {
		return fmt.Errorf("topo: link serialisation %v per byte is not positive", cfg.Link.PsPerByte)
	}
	if cfg.Link.Latency < 0 {
		return fmt.Errorf("topo: negative link latency %v", cfg.Link.Latency)
	}
	return nil
}

// NewFatTree builds the two-level fat tree. Every ToR connects to every
// core switch, and every link is the same, so the oversubscription ratio
// is HostsPerToR:Cores. Two calls with equal configs build equal
// topologies.
func NewFatTree(cfg FatTreeConfig) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nToR := cfg.Hosts / cfg.HostsPerToR
	t := &Topology{Name: fmt.Sprintf("fattree-%dh-%dtor-%dcore", cfg.Hosts, nToR, cfg.Cores)}
	hosts := make([]int, cfg.Hosts)
	for i := range hosts {
		hosts[i] = t.addDevice(Host, fmt.Sprintf("h%d", i))
	}
	tors := make([]int, nToR)
	for i := range tors {
		tors[i] = t.addDevice(Switch, fmt.Sprintf("tor%d", i))
	}
	cores := make([]int, cfg.Cores)
	for i := range cores {
		cores[i] = t.addDevice(Switch, fmt.Sprintf("core%d", i))
	}
	for i, h := range hosts {
		t.addDuplex(h, tors[i/cfg.HostsPerToR], cfg.Link)
	}
	for _, tor := range tors {
		for _, core := range cores {
			t.addDuplex(tor, core, cfg.Link)
		}
	}
	return t, nil
}

// DefaultLinkSpec returns the link parameters used throughout the paper's
// experiments: 200 Gb/s (25 GB/s, G = 40 ps/B), 500 ns propagation, 1 MiB
// port buffers (paper §5.1).
func DefaultLinkSpec() LinkSpec {
	return LinkSpec{
		Latency:   500 * simtime.Nanosecond,
		PsPerByte: 40 * simtime.Picosecond,
		BufBytes:  1 << 20,
	}
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (§5 validation, §6 case studies). Each experiment is a
// ComputeX function returning a typed result, a Report that renders as
// the paper's text or exports as a results.Sweep. Absolute numbers differ
// from the paper (the testbed is the fluid emulator, not Alps/CSCS
// hardware, and byte counts are scaled); the shapes — who wins, by what
// factor, where crossovers fall — are the reproduction targets, pinned by
// the golden reports under testdata/golden/.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"atlahs/internal/backend"
	"atlahs/internal/goal"
	"atlahs/internal/pktnet"
	"atlahs/internal/simtime"
	"atlahs/internal/stats"
	"atlahs/internal/topo"
	"atlahs/sim"
)

// Mode selects experiment sizing: Quick keeps everything test-sized; Full
// is the default for cmd/experiments.
type Mode int

// Modes.
const (
	Quick Mode = iota
	Full
)

// String names the mode as recorded in exported result artifacts.
func (m Mode) String() string {
	if m == Quick {
		return "quick"
	}
	return "full"
}

// Domain bundles per-domain calibration: link parameters for the
// congestion-aware backends and host overheads matching the LogGOPS o
// parameter, so all backends in one validation experiment model the same
// machine (paper §5.2: "we configure ATLAHS htsim to also match these
// parameters used by ATLAHS LGS").
type Domain struct {
	Link   topo.LinkSpec
	Params backend.NetParams
	LGS    backend.LogGOPS
	// TestbedOverhead is the extra per-message software latency of the
	// fluid "measured" system beyond the host overheads (stack traversal,
	// completion interrupts) — part of the independent ground-truth model.
	TestbedOverhead simtime.Duration
}

// AIDomain calibrates for the Alps-like AI cluster: 25 GB/s links
// (G = 40 ps/B), per-link latency chosen so a 4-hop cross-ToR path matches
// L = 3.7 us, o = 200 ns host overheads.
func AIDomain() Domain {
	return Domain{
		Link: topo.LinkSpec{
			Latency:   900 * simtime.Nanosecond,
			PsPerByte: 40 * simtime.Picosecond,
			BufBytes:  1 << 20,
		},
		Params: backend.NetParams{
			SendOverhead: 200 * simtime.Nanosecond,
			RecvOverhead: 200 * simtime.Nanosecond,
		},
		LGS:             backend.AIParams(),
		TestbedOverhead: 500 * simtime.Nanosecond,
	}
}

// HPCDomain calibrates for the CSCS test-bed: 56 Gbit/s links
// (G = 180 ps/B), 4-hop path latency ~= L = 3 us, o = 6 us overheads,
// 256 KB rendezvous threshold in the LGS backend.
func HPCDomain() Domain {
	return Domain{
		Link: topo.LinkSpec{
			Latency:   600 * simtime.Nanosecond,
			PsPerByte: 180 * simtime.Picosecond,
			BufBytes:  1 << 20,
		},
		Params: backend.NetParams{
			SendOverhead: 6 * simtime.Microsecond,
			RecvOverhead: 6 * simtime.Microsecond,
		},
		LGS:             backend.HPCParams(),
		TestbedOverhead: 1500 * simtime.Nanosecond,
	}
}

// RunLGS simulates s on the LogGOPS backend through the sim facade and
// reports simulated runtime plus wall-clock simulation time.
func RunLGS(s *goal.Schedule, p backend.LogGOPS) (simtime.Duration, time.Duration, error) {
	res, err := sim.Run(context.Background(), sim.Spec{
		Workload: sim.Workload{Schedule: s},
		Backend:  "lgs",
		Config:   sim.LGSConfig{Params: p},
	})
	if err != nil {
		return 0, 0, err
	}
	return res.Runtime, res.Wall, nil
}

// PktRun bundles the packet-backend results.
type PktRun struct {
	Runtime simtime.Duration
	Wall    time.Duration
	Stats   pktnet.Stats
	MCT     *stats.Sample
	RankEnd []simtime.Time
}

// RunPkt simulates s on the packet-level backend over the given topology
// and congestion control through the sim facade, collecting MCT samples.
func RunPkt(s *goal.Schedule, tp *topo.Topology, ccName string, seed uint64, dom Domain) (*PktRun, error) {
	mct := &stats.Sample{}
	res, err := sim.Run(context.Background(), sim.Spec{
		Workload: sim.Workload{Schedule: s},
		Backend:  "pkt",
		Config: sim.PktConfig{
			Topo:   tp,
			CC:     ccName,
			Seed:   seed,
			Params: dom.Params,
			MCT:    mct,
		},
	})
	if err != nil {
		return nil, err
	}
	return &PktRun{
		Runtime: res.Runtime,
		Wall:    res.Wall,
		Stats:   *res.Net,
		MCT:     mct,
		RankEnd: res.RankEnd,
	}, nil
}

// RunFluid simulates s on the fluid emulator — the "measured" testbed of
// the validation experiments, standing in for the paper's clusters (see
// the package doc). Jitter and per-message overhead emulate system noise
// deterministically.
func RunFluid(s *goal.Schedule, tp *topo.Topology, seed uint64, dom Domain) (simtime.Duration, []simtime.Time, error) {
	res, err := sim.Run(context.Background(), sim.Spec{
		Workload: sim.Workload{Schedule: s},
		Backend:  "fluid",
		Config: sim.FluidConfig{
			Topo:       tp,
			Overhead:   dom.TestbedOverhead,
			JitterFrac: 0.03,
			Seed:       seed,
			Params:     dom.Params,
		},
	})
	if err != nil {
		return 0, nil, err
	}
	return res.Runtime, res.RankEnd, nil
}

// FatTree builds a two-level fat tree with hosts rounded up to fill ToRs
// and the requested ToR:Core oversubscription ratio, by sim.FatTree's
// sizing rule: a ratio above hostsPerToR would need less than one core
// switch and is an error, not a fabric with a different ratio.
func FatTree(hosts, hostsPerToR, oversub int, dom Domain) (*topo.Topology, error) {
	return sim.FatTree(hosts, hostsPerToR, oversub, 0, dom.Link)
}

// InterleaveMapping spreads job nodes round-robin across ToRs (node i to
// physical host (i % nToRs)*hostsPerToR + i/nToRs, folded to stay a
// permutation of [0, n)). Real schedulers rarely hand a job ToR-contiguous
// ranks, and ring collectives over interleaved nodes push every edge
// through the core — the congestion regime of the paper's
// oversubscription case studies (Figs 1B, 12).
func InterleaveMapping(n, hostsPerToR int) []int {
	nToRs := (n + hostsPerToR - 1) / hostsPerToR
	m := make([]int, n)
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		c := (i%nToRs)*hostsPerToR + i/nToRs
		if c >= n || seen[c] {
			c = 0
			for seen[c] {
				c++
			}
		}
		m[i] = c
		seen[c] = true
	}
	return m
}

// ComputeOnlyRuntime returns the critical-path computation time of a
// schedule: the maximum over (rank, stream) of the summed calc durations.
// The validation figures report the "non-overlapped computation" share as
// this value over the measured runtime.
func ComputeOnlyRuntime(s *goal.Schedule) simtime.Duration {
	var max simtime.Duration
	for r := range s.Ranks {
		perStream := map[int32]simtime.Duration{}
		for i := range s.Ranks[r].Ops {
			op := &s.Ranks[r].Ops[i]
			if op.Kind == goal.KindCalc {
				perStream[op.CPU] += op.CalcDuration(1.0)
			}
		}
		for _, d := range perStream {
			if d > max {
				max = d
			}
		}
	}
	return max
}

// PercentErr is shorthand for the paper's error convention.
func PercentErr(predicted, measured simtime.Duration) float64 {
	return stats.PercentError(float64(predicted), float64(measured))
}

// header prints an underlined section title.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for range title {
		fmt.Fprint(w, "=")
	}
	fmt.Fprintln(w)
}

// MiB renders a byte count in mebibytes.
func MiB(n int64) float64 { return float64(n) / (1 << 20) }

// oneline flattens free text (e.g. wrapped error messages) to a single
// line, as the results schema requires of string cells.
func oneline(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// Package goal implements the Group Operation Assembly Language (GOAL),
// the intermediate trace format at the heart of the ATLAHS toolchain
// (Hoefler, Siebert, Lumsdaine, ICPP'09; paper §2.1).
//
// A GOAL schedule describes, for every rank, a directed acyclic graph of
// three task kinds:
//
//   - calc  — computation for a given number of nanoseconds
//   - send  — transmit N bytes to a peer rank with a tag
//   - recv  — receive N bytes from a peer rank with a tag
//
// Edges express dependencies: "a requires b" delays the start of a until b
// has completed; "a irequires b" delays the start of a until b has started.
// Every task is assigned to a compute stream (the "cpu" tag, stream 0 by
// default); tasks on the same stream execute sequentially even when their
// dependencies would allow overlap, which is how GOAL models per-stream
// GPU/CPU serialisation.
//
// The package provides the in-memory graph, a builder API used by all the
// trace converters and workload generators, a parser and printer for the
// textual format (paper Fig 3), and a compact binary codec used for
// storage-efficiency comparisons against Chakra (paper Fig 9).
//
// Dependency edges have one in-memory layout, Deps: a flat offset array
// plus a flat edge array per table, both pointer-free. The builder and
// both decoders produce it, Compose copies it; Validate, the codecs,
// the scheduler and the synthesis miner read it through Deps.Of, and
// Deps.Invert is the one routine that turns dependencies into successors.
// The Deps doc comment has the byte accounting behind that choice.
package goal

import (
	"fmt"

	"atlahs/internal/registry"
	"atlahs/internal/simtime"
)

// Kind identifies the task type of an Op.
type Kind uint8

// Task kinds.
const (
	KindCalc Kind = iota
	KindSend
	KindRecv
)

func (k Kind) String() string {
	switch k {
	case KindCalc:
		return "calc"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// AnyTag is a wildcard recv tag matching any message tag from the source.
const AnyTag int32 = -1

// Op is one GOAL task. For sends and receives Size is a byte count and
// Peer/Tag identify the matching endpoint; for calcs Size is a duration in
// nanoseconds and Peer/Tag are unused.
type Op struct {
	Kind Kind
	CPU  int32 // compute stream; 0 is the default stream
	Peer int32 // destination (send) or source (recv); -1 for calc
	Tag  int32
	Size int64 // bytes (send/recv) or nanoseconds (calc)
}

// CalcDuration returns the simulated duration of a calc op after applying
// the hardware-adaptation scale factor (paper §7). scale 1.0 means the op
// runs for exactly Size nanoseconds.
func (o Op) CalcDuration(scale float64) simtime.Duration {
	if scale == 1.0 {
		return simtime.FromNanos(o.Size)
	}
	return simtime.FromNanosF(float64(o.Size) * scale)
}

// RankProgram is the task DAG of a single rank. Dependency lists hold
// indices into Ops; all dependencies are rank-local (cross-rank ordering
// emerges from send/recv matching during simulation).
type RankProgram struct {
	Ops       []Op
	Requires  Deps // Requires.Of(i): ops that must complete before op i starts
	IRequires Deps // IRequires.Of(i): ops that must have started before op i starts
}

// NumOps returns the number of tasks in the rank program.
func (rp *RankProgram) NumOps() int { return len(rp.Ops) }

// Schedule is a complete GOAL schedule for NRanks ranks.
type Schedule struct {
	Comment string
	Ranks   []RankProgram
}

// NumRanks returns the number of ranks in the schedule.
func (s *Schedule) NumRanks() int { return len(s.Ranks) }

// Stats summarises a schedule: totals used in experiment reports and for
// Table 1 style size accounting.
type Stats struct {
	Ranks      int
	Ops        int64
	Sends      int64
	Recvs      int64
	Calcs      int64
	SendBytes  int64
	CalcNanos  int64
	DepEdges   int64
	MaxStreams int
}

// ComputeStats walks the schedule and tallies Stats.
func (s *Schedule) ComputeStats() Stats {
	st := Stats{Ranks: s.NumRanks()}
	for r := range s.Ranks {
		rp := &s.Ranks[r]
		streams := map[int32]struct{}{}
		for i := range rp.Ops {
			op := &rp.Ops[i]
			st.Ops++
			streams[op.CPU] = struct{}{}
			switch op.Kind {
			case KindSend:
				st.Sends++
				st.SendBytes += op.Size
			case KindRecv:
				st.Recvs++
			case KindCalc:
				st.Calcs++
				st.CalcNanos += op.Size
			}
		}
		st.DepEdges += int64(rp.Requires.NumEdges() + rp.IRequires.NumEdges())
		if len(streams) > st.MaxStreams {
			st.MaxStreams = len(streams)
		}
	}
	return st
}

// Validate checks structural invariants: peer ranks in range, non-negative
// sizes, dependency indices in range, and per-rank acyclicity over
// requires+irequires edges. It returns the first violation found. The
// acyclicity check works in arrays kept from one call to the next, so
// validating a schedule no larger than one validated before allocates
// nothing, whoever calls it.
func (s *Schedule) Validate() error {
	n := int32(s.NumRanks())
	for r := range s.Ranks {
		rp := &s.Ranks[r]
		nops := int32(len(rp.Ops))
		if rp.Requires.Len() != int(nops) || rp.IRequires.Len() != int(nops) {
			return fmt.Errorf("goal: rank %d: dependency table length mismatch (%d ops, %d requires, %d irequires)",
				r, nops, rp.Requires.Len(), rp.IRequires.Len())
		}
		// ordered: every edge points at an earlier op, which is how
		// builders and most trace converters emit them. Index order is
		// then a topological order and the rank is acyclic without
		// looking further.
		ordered := true
		for i := range rp.Ops {
			op := &rp.Ops[i]
			if op.Size < 0 {
				return fmt.Errorf("goal: rank %d op %d: negative size %d", r, i, op.Size)
			}
			if op.CPU < 0 {
				return fmt.Errorf("goal: rank %d op %d: negative cpu %d", r, i, op.CPU)
			}
			switch op.Kind {
			case KindSend, KindRecv:
				if op.Peer < 0 || op.Peer >= n {
					return fmt.Errorf("goal: rank %d op %d: peer %d out of range [0,%d)", r, i, op.Peer, n)
				}
				if int(op.Peer) == r {
					return fmt.Errorf("goal: rank %d op %d: self-%s not allowed", r, i, op.Kind)
				}
			case KindCalc:
			default:
				return fmt.Errorf("goal: rank %d op %d: unknown kind %d", r, i, op.Kind)
			}
			for _, d := range rp.Requires.Of(i) {
				if d < 0 || d >= nops {
					return fmt.Errorf("goal: rank %d op %d: requires index %d out of range", r, i, d)
				}
				ordered = ordered && d < int32(i)
			}
			for _, d := range rp.IRequires.Of(i) {
				if d < 0 || d >= nops {
					return fmt.Errorf("goal: rank %d op %d: irequires index %d out of range", r, i, d)
				}
				ordered = ordered && d < int32(i)
			}
		}
		if !ordered {
			if err := checkAcyclic(rp); err != nil {
				return fmt.Errorf("goal: rank %d: %w", r, err)
			}
		}
	}
	return nil
}

// acyclicScratch keeps checkAcyclic's arrays from one check to the next.
var acyclicScratch registry.Stock[[]int32]

// checkAcyclic runs Kahn's algorithm on the transposed graph: it peels ops
// that no unpeeled op depends on, walking the dependency lists themselves,
// so it needs no successor table. A graph has a cycle exactly when its
// transpose does. Its two arrays of one int32 per op are taken from
// acyclicScratch, grown when the rank needs more and put back, so the
// process allocates them for its largest unordered rank once. What the
// arrays hold on entry is never read.
func checkAcyclic(rp *RankProgram) error {
	scratch := acyclicScratch.Take()
	defer acyclicScratch.Put(scratch)
	n := len(rp.Ops)
	if len(*scratch) < 2*n {
		*scratch = make([]int32, 2*n)
	}
	dependents := (*scratch)[:n] // unpeeled ops that depend on op i
	clear(dependents)
	for _, d := range rp.Requires.edges {
		dependents[d]++
	}
	for _, d := range rp.IRequires.edges {
		dependents[d]++
	}
	queue := (*scratch)[n : n : 2*n] // every op is queued once
	for i, c := range dependents {
		if c == 0 {
			queue = append(queue, int32(i))
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := int(queue[len(queue)-1])
		queue = queue[:len(queue)-1]
		seen++
		for _, deps := range [2][]int32{rp.Requires.Of(v), rp.IRequires.Of(v)} {
			for _, d := range deps {
				dependents[d]--
				if dependents[d] == 0 {
					queue = append(queue, d)
				}
			}
		}
	}
	if seen != n {
		return fmt.Errorf("dependency cycle among %d ops", n-seen)
	}
	return nil
}

// CheckMatched verifies that every send has a compatible recv and vice
// versa: for each (src, dst, tag) the number and total bytes of sends equal
// those of recvs (wildcard-tag receives are counted per (src,dst) pair).
// This is a debugging aid for generators; simulation does its own dynamic
// matching.
func (s *Schedule) CheckMatched() error {
	type key struct {
		src, dst, tag int32
	}
	sends := map[key]int64{}
	recvs := map[key]int64{}
	wildcards := map[[2]int32]int64{}
	for r := range s.Ranks {
		rp := &s.Ranks[r]
		for i := range rp.Ops {
			op := &rp.Ops[i]
			switch op.Kind {
			case KindSend:
				sends[key{int32(r), op.Peer, op.Tag}]++
			case KindRecv:
				if op.Tag == AnyTag {
					wildcards[[2]int32{op.Peer, int32(r)}]++
				} else {
					recvs[key{op.Peer, int32(r), op.Tag}]++
				}
			}
		}
	}
	for k, ns := range sends {
		nr := recvs[k]
		if nr < ns {
			// try wildcard absorption
			w := wildcards[[2]int32{k.src, k.dst}]
			need := ns - nr
			if w >= need {
				wildcards[[2]int32{k.src, k.dst}] = w - need
				continue
			}
			return fmt.Errorf("goal: %d unmatched send(s) %d->%d tag %d", ns-nr-w, k.src, k.dst, k.tag)
		}
		if nr > ns {
			return fmt.Errorf("goal: %d unmatched recv(s) %d->%d tag %d", nr-ns, k.src, k.dst, k.tag)
		}
	}
	for k, nr := range recvs {
		if sends[k] == 0 && nr > 0 {
			return fmt.Errorf("goal: %d recv(s) with no send %d->%d tag %d", nr, k.src, k.dst, k.tag)
		}
	}
	return nil
}

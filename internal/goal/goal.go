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
// An op is 16 bytes, two words read through accessor methods (the Op doc
// comment has the bit layout). A calc holds any non-negative int64
// nanoseconds and an int32 cpu. A send or receive holds 0 to 2^40 bytes
// (1 TiB), a cpu of 0 to 2^21 − 2, and an int32 peer and tag. Both
// decoders refuse any other value where they read it, naming the field,
// and an op the Builder is given with such a value is one that Validate
// refuses.
//
// Dependency edges have one in-memory layout, Deps: each table is the
// binary encoding's own dependency section — a byte or two per op and
// per edge, 0.36 MB for LULESH's 145 152 ops and 212 992 edges against
// 1.43 MB in compressed-sparse-row form — and a table without edges is
// its list count alone. The builder and both decoders produce it, Compose
// copies it, WriteBinary writes it back as it is; the text writer and
// the synthesis miner read it in op order through a DepCursor, Validate
// decodes it in place, and Deps.Invert, the one routine that turns
// dependencies into successors, makes the CSR successor table (Succ) the
// scheduler indexes at every completion. The Deps doc comment has the
// byte accounting.
package goal

import (
	"fmt"

	"atlahs/internal/registry"
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

// RankProgram is the task DAG of a single rank. Dependency lists hold
// indices into Ops; all dependencies are rank-local (cross-rank ordering
// emerges from send/recv matching during simulation).
type RankProgram struct {
	Ops       []Op
	Requires  Deps // list i: ops that must complete before op i starts
	IRequires Deps // list i: ops that must have started before op i starts
}

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
		for _, op := range rp.Ops {
			st.Ops++
			streams[op.CPU()] = struct{}{}
			switch op.Kind() {
			case KindSend:
				st.Sends++
				st.SendBytes += op.Size()
			case KindRecv:
				st.Recvs++
			case KindCalc:
				st.Calcs++
				st.CalcNanos += op.Size()
			}
		}
		st.DepEdges += int64(rp.Requires.NumEdges() + rp.IRequires.NumEdges())
		if len(streams) > st.MaxStreams {
			st.MaxStreams = len(streams)
		}
	}
	return st
}

// Validate checks structural invariants: no op in the reserved form of
// values the packed layout cannot hold (see Op: a negative size, a
// message over 1 TiB or on a cpu above 2^21 − 2), calc cpus non-negative,
// peer ranks in range, dependency indices in range, and per-rank
// acyclicity over requires+irequires edges. It returns the first
// violation found. The acyclicity check works in arrays kept from one
// call to the next, so validating a schedule no larger than one validated
// before allocates nothing, whoever calls it.
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
		encs := [2][]byte{rp.Requires.enc, rp.IRequires.enc}
		var at [2]int // where op i's list starts in each table's bytes
		for i, op := range rp.Ops {
			if !op.held() {
				return fmt.Errorf("goal: rank %d op %d: %w", r, i, op.unheldErr())
			}
			if op.isCalc() {
				if cpu := op.CPU(); cpu < 0 {
					return fmt.Errorf("goal: rank %d op %d: negative cpu %d", r, i, cpu)
				}
			} else if peer := op.Peer(); peer < 0 || peer >= n {
				return fmt.Errorf("goal: rank %d op %d: peer %d out of range [0,%d)", r, i, peer, n)
			} else if int(peer) == r {
				return fmt.Errorf("goal: rank %d op %d: self-%s not allowed", r, i, op.Kind())
			}
			// The lists are decoded into locals rather than through a
			// DepCursor, whose fields live in memory: Validate runs on
			// every decoded schedule.
			for t := range encs {
				if encs[t] == nil {
					continue
				}
				k, off := uvarintAt(encs[t], at[t])
				for ; k > 0; k-- {
					var u uint64
					u, off = uvarintAt(encs[t], off)
					d := int32(i) - unzigzag(u)
					if d < 0 || d >= nops {
						return fmt.Errorf("goal: rank %d op %d: %s index %d out of range", r, i, depKinds[t], d)
					}
					ordered = ordered && d < int32(i)
				}
				at[t] = off
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

// depKinds names a rank's two dependency tables, in the order Validate
// and checkAcyclic take them.
var depKinds = [2]string{"requires", "irequires"}

// checkAcyclic runs Kahn's algorithm on the transposed graph: it peels ops
// that no unpeeled op depends on, walking the dependency lists themselves,
// so it needs no successor table. A graph has a cycle exactly when its
// transpose does. Peeling reads ops' lists out of order, so it first
// records where each op's list starts in each table's bytes. Its four
// arrays of one int32 per op — those two indexes, the counts and the
// queue — are taken from acyclicScratch, grown when the rank needs more
// and put back, so the process allocates them for its largest unordered
// rank once. What the arrays hold on entry is never read.
func checkAcyclic(rp *RankProgram) error {
	scratch := acyclicScratch.Take()
	defer acyclicScratch.Put(scratch)
	n := len(rp.Ops)
	if len(*scratch) < 4*n {
		*scratch = make([]int32, 4*n)
	}
	dependents := (*scratch)[:n] // unpeeled ops that depend on op i
	clear(dependents)
	encs := [2][]byte{rp.Requires.enc, rp.IRequires.enc}
	var starts [2][]int32 // where op i's list starts in each table's bytes
	for t, enc := range encs {
		if enc == nil {
			continue
		}
		starts[t] = (*scratch)[(2+t)*n : (3+t)*n]
		off := 0
		for i := range starts[t] {
			starts[t][i] = int32(off)
			var k uint64
			for k, off = uvarintAt(enc, off); k > 0; k-- {
				var u uint64
				u, off = uvarintAt(enc, off)
				dependents[int32(i)-unzigzag(u)]++
			}
		}
	}
	queue := (*scratch)[n : n : 2*n] // every op is queued once
	for i, c := range dependents {
		if c == 0 {
			queue = append(queue, int32(i))
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for t := range encs {
			if encs[t] == nil {
				continue
			}
			k, off := uvarintAt(encs[t], int(starts[t][v]))
			for ; k > 0; k-- {
				var u uint64
				u, off = uvarintAt(encs[t], off)
				d := v - unzigzag(u)
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
		for _, op := range rp.Ops {
			switch op.Kind() {
			case KindSend:
				sends[key{int32(r), op.Peer(), op.Tag()}]++
			case KindRecv:
				if op.Tag() == AnyTag {
					wildcards[[2]int32{op.Peer(), int32(r)}]++
				} else {
					recvs[key{op.Peer(), int32(r), op.Tag()}]++
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

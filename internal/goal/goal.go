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
// An op is a 16-byte value of two words read through accessor methods
// (the Op doc comment has the bit layout). A calc holds any non-negative
// int64 nanoseconds and an int32 cpu. A send or receive holds 0 to 2^40
// bytes (1 TiB), a cpu of 0 to 2^21 − 2, and an int32 peer and tag. Both
// decoders refuse any other value where they read it, naming the field,
// and an op the Builder is given with such a value is one that Validate
// refuses. A rank stores an op in a 4-byte short word, which holds a calc
// under 2^27 ns (about 134 ms) or a message under 2^26 bytes (64 MiB) on
// cpu 0 to 14, and keeps side words only where the short word cannot
// hold the op: a message's peer and tag, and the whole op of a long one.
// A calc-heavy rank, such as a converted training trace's, costs about 4
// bytes an op, and a rank of messages about 12.4, the side words being
// found by rank/select; a long calc costs 12 bytes and a long message 20.
// Short words, index and side words are one array per rank (the
// RankProgram doc comment has the layout). A rank's ops are read through
// RankProgram's Len, Op and Kind, or in op order through an OpCursor.
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
	"cmp"
	"fmt"
	"maps"
	"math/bits"
	"slices"

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

// RankProgram is the task DAG of a single rank. Dependency lists hold op
// indices; all dependencies are rank-local (cross-rank ordering emerges
// from send/recv matching during simulation).
//
// Ops are read through Len, Op and Kind, or in op order through Cursor.
// A rank holds its ops in one array of exactly the length they need:
//
//   - each op's 4-byte short word (see appendSide), two to a word
//     (shortAt);
//   - then, only if any op has side words, a rank/select index of three
//     words per block of 64 ops: a bitmap of the block's ops that have
//     side words, a bitmap of those that have two, and the index in the
//     array of the block's first side word;
//   - then the side words in op order: a short message's second word, a
//     long op's first word and then its second, if it has one.
//
// Op i's side words are at its block's index plus the two bitmaps' counts
// of ops before i in the block. A rank of short calcs costs 4 bytes an
// op, a rank of short messages about 12.4, a long calc 12 and a long
// message 20 bytes, plus the index.
type RankProgram struct {
	ops       []uint64 // short words, then index and side words if any
	n         int      // the number of ops
	Requires  Deps     // list i: ops that must complete before op i starts
	IRequires Deps     // list i: ops that must have started before op i starts
}

// Len returns the number of ops.
func (rp *RankProgram) Len() int { return rp.n }

// short returns op i's short word.
func (rp *RankProgram) short(i int) uint32 {
	if uint(i) >= uint(rp.n) {
		panic(opRange{i, rp.n})
	}
	return shortAt(rp.ops, i)
}

// shortAt returns op i's short word from a rank's array: op 2k's is the
// low half of word k, op 2k+1's the high half.
func shortAt(ops []uint64, i int) uint32 { return uint32(ops[i>>1] >> (i & 1 << 5)) }

// opRange is the panic of an op index out of range: a value, formatted
// only when the panic is printed, so that short stays small enough to be
// inlined into every reader.
type opRange struct{ i, n int }

func (e opRange) Error() string { return fmt.Sprintf("goal: op %d out of range [0,%d)", e.i, e.n) }

// Op returns op i.
func (rp *RankProgram) Op(i int) Op {
	s := rp.short(i)
	if s < shortSide {
		return calcOf(s)
	}
	op, _ := expandSide(s, rp.ops, rp.sideAt(i))
	return op
}

// Kind returns op i's kind, which its short word alone holds.
func (rp *RankProgram) Kind(i int) Kind { return kindOf(uint64(rp.short(i) >> 30)) }

// Cursor returns a cursor before the rank's first op.
func (rp *RankProgram) Cursor() OpCursor {
	return OpCursor{ops: rp.ops, next: rp.sideStart()}
}

// shortWords returns how many words the rank's short words fill.
func shortWords(n int) int { return (n + 1) >> 1 }

// sideStart returns where the first side word is in ops: after the short
// words and the index.
func (rp *RankProgram) sideStart() int { return shortWords(rp.n) + 3*((rp.n+63)>>6) }

// OpCursor reads a rank's ops in op order. It takes the side words one
// after another, so a walk over every op (the text writer, the
// scheduler's set-up) costs no rank/select. It is a value, so a reader
// allocates nothing however many ranks it walks. Validate and
// WriteBinary, which run on every decoded schedule and every fingerprint,
// walk the same way in locals of their own.
type OpCursor struct {
	ops     []uint64
	i, next int // the next op, and where its side words would be
}

// Next returns the next op. It must not be called more often than the
// rank has ops.
func (c *OpCursor) Next() Op {
	s := shortAt(c.ops, c.i)
	c.i++
	if s < shortSide {
		return calcOf(s)
	}
	op, k := expandSide(s, c.ops, c.next)
	c.next += k
	return op
}

// sideAt returns where op i's first side word is in ops; op i must have
// one.
func (rp *RankProgram) sideAt(i int) int {
	b := shortWords(rp.n) + 3*(i>>6)
	below := uint64(1)<<(i&63) - 1
	return int(rp.ops[b+2]) + bits.OnesCount64(rp.ops[b]&below) + bits.OnesCount64(rp.ops[b+1]&below)
}

// packRank returns the one array of a rank whose short words are shorts
// and whose side words, in op order, are side (see RankProgram): nil for
// a rank without ops, and no index when there are no side words.
func packRank(shorts []uint32, side []uint64) []uint64 {
	n := len(shorts)
	if n == 0 {
		return nil
	}
	half, nb := shortWords(n), (n+63)>>6
	size := half
	if len(side) > 0 {
		size += 3*nb + len(side)
	}
	ops := make([]uint64, size)
	for k := range n >> 1 {
		ops[k] = uint64(shorts[2*k]) | uint64(shorts[2*k+1])<<32
	}
	if n&1 != 0 {
		ops[half-1] = uint64(shorts[n-1])
	}
	if len(side) == 0 {
		return ops
	}
	at := uint64(half + 3*nb)
	for b := range nb {
		var one uint64
		for j, s := range shorts[b<<6 : min(b<<6+64, n)] {
			// s >= shortSide without a branch: calcs and messages
			// interleave, so a branch here is mispredicted often.
			_, below := bits.Sub32(s, shortSide, 0)
			one |= uint64(below^1) << j
		}
		idx := ops[half+3*b : half+3*b+3]
		idx[0], idx[2] = one, at
		at += uint64(bits.OnesCount64(one))
	}
	if at != uint64(size) {
		// Some op has two side words, so the blocks' second bitmaps
		// are not all empty and their first side words lie further on.
		at = uint64(half + 3*nb)
		for b := range nb {
			idx := ops[half+3*b : half+3*b+3]
			for j, s := range shorts[b<<6 : min(b<<6+64, n)] {
				if twoSides(s) {
					idx[1] |= 1 << j
				}
			}
			idx[2] = at
			at += uint64(bits.OnesCount64(idx[0]) + bits.OnesCount64(idx[1]))
		}
	}
	copy(ops[half+3*nb:], side)
	return ops
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
		ops := rp.Cursor()
		for range rp.Len() {
			op := ops.Next()
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
		nops := int32(rp.Len())
		if rp.Requires.Len() != int(nops) || rp.IRequires.Len() != int(nops) {
			return fmt.Errorf("goal: rank %d: dependency table length mismatch (%d ops, %d requires, %d irequires)",
				r, nops, rp.Requires.Len(), rp.IRequires.Len())
		}
		// ordered: every edge points at an earlier op, which is how
		// builders and most trace converters emit them. Index order is
		// then a topological order and the rank is acyclic without
		// looking further.
		ordered := true
		encs := [2]string{rp.Requires.enc, rp.IRequires.enc}
		var at [2]int // where op i's list starts in each table's bytes
		// OpCursor's walk, in locals, as the lists' below.
		ops, next := rp.ops, rp.sideStart()
		for i := range int(nops) {
			op, k := Op{}, 0
			if s := shortAt(ops, i); s < shortSide {
				op = calcOf(s)
			} else {
				op, k = expandSide(s, ops, next)
			}
			next += k
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
				if encs[t] == "" {
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
	n := rp.Len()
	if len(*scratch) < 4*n {
		*scratch = make([]int32, 4*n)
	}
	dependents := (*scratch)[:n] // unpeeled ops that depend on op i
	clear(dependents)
	encs := [2]string{rp.Requires.enc, rp.IRequires.enc}
	var starts [2][]int32 // where op i's list starts in each table's bytes
	for t, enc := range encs {
		if enc == "" {
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
			if encs[t] == "" {
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
// those of recvs. Wildcard-tag receives are pooled per (src, dst) pair:
// they take up, key by key, the sends that tagged receives leave; then
// every pool must be used up, its bytes equal to the bytes it took. Keys
// are checked in (src, dst, tag) order, then pools in (src, dst) order,
// and the first mismatch is reported. This is a debugging aid for generators; simulation does its
// own dynamic matching.
func (s *Schedule) CheckMatched() error {
	type key struct {
		src, dst, tag int32
	}
	type tally struct {
		n, bytes int64
	}
	sends := map[key]tally{}
	recvs := map[key]tally{}
	wildcards := map[[2]int32]tally{}
	var keys []key
	for r := range s.Ranks {
		rp := &s.Ranks[r]
		ops := rp.Cursor()
		for range rp.Len() {
			op := ops.Next()
			var k key
			switch op.Kind() {
			case KindSend:
				k = key{int32(r), op.Peer(), op.Tag()}
				t := sends[k]
				sends[k] = tally{t.n + 1, t.bytes + op.Size()}
			case KindRecv:
				if op.Tag() == AnyTag {
					pair := [2]int32{op.Peer(), int32(r)}
					t := wildcards[pair]
					wildcards[pair] = tally{t.n + 1, t.bytes + op.Size()}
					continue
				}
				k = key{op.Peer(), int32(r), op.Tag()}
				t := recvs[k]
				recvs[k] = tally{t.n + 1, t.bytes + op.Size()}
			default:
				continue
			}
			if sends[k].n+recvs[k].n == 1 {
				keys = append(keys, k)
			}
		}
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst), cmp.Compare(a.tag, b.tag))
	})
	taken := map[[2]int32]int64{} // the bytes each pool took
	for _, k := range keys {
		st, rt := sends[k], recvs[k]
		switch {
		case st.n == 0:
			return fmt.Errorf("goal: %d recv(s) with no send %d->%d tag %d", rt.n, k.src, k.dst, k.tag)
		case rt.n > st.n:
			return fmt.Errorf("goal: %d unmatched recv(s) %d->%d tag %d", rt.n-st.n, k.src, k.dst, k.tag)
		case rt.n == st.n && rt.bytes != st.bytes:
			return fmt.Errorf("goal: %d->%d tag %d: %d bytes sent, %d bytes received", k.src, k.dst, k.tag, st.bytes, rt.bytes)
		case rt.n < st.n:
			pair := [2]int32{k.src, k.dst}
			w := wildcards[pair]
			if need := st.n - rt.n; w.n < need {
				return fmt.Errorf("goal: %d unmatched send(s) %d->%d tag %d", need-w.n, k.src, k.dst, k.tag)
			}
			wildcards[pair] = tally{w.n - (st.n - rt.n), w.bytes}
			taken[pair] += st.bytes - rt.bytes
		}
	}
	pairs := slices.SortedFunc(maps.Keys(wildcards), func(a, b [2]int32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	for _, pair := range pairs {
		switch w := wildcards[pair]; {
		case w.n > 0:
			return fmt.Errorf("goal: %d unmatched any-tag recv(s) %d->%d", w.n, pair[0], pair[1])
		case w.bytes != taken[pair]:
			return fmt.Errorf("goal: %d->%d any tag: %d bytes sent, %d bytes received", pair[0], pair[1], taken[pair], w.bytes)
		}
	}
	return nil
}

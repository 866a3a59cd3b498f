// Package collective decomposes collective operations into GOAL
// point-to-point schedules — stage 3 of the paper's AI pipeline (Fig 5)
// and Schedgen's collective substitution for MPI traces (§3.1.1).
//
// Supported algorithms: ring (allreduce, bcast, allgather, reduce-scatter),
// recursive doubling (allreduce), binomial tree (bcast, reduce), pairwise
// exchange (alltoall), dissemination (barrier), and linear (gather,
// scatter). NCCL-style knobs model multiple channels (parallel rings fed
// by split chunks, NCCL_MAX_NCHANNELS), the Simple vs LL protocol
// (NCCL_PROTO; LL halves effective bandwidth by interleaving flags but
// uses smaller chunks) and buffer-limited chunking (paper Fig 4: a 2 MB
// ring broadcast becomes four pipelined 512 KB sends per hop).
//
// Decomposition is per position. Decompose emits the ops of one member of
// the group onto an Emitter — the member's rank builder, or anything that
// stands in for one — wired from the member's entry op to the exit op it
// returns, so collectives compose into larger schedules. What one member
// gets depends only on the collective and the member's position, never on
// which other members were emitted before it: every op is wired right
// after it is added, every dependency names an op the member emitted
// earlier in the same call (or its entry), and no state is kept between
// calls or allocated during one. A caller emits members in whatever order
// suits it — Schedgen and the Chakra converter loop over the group, the
// NCCL pipeline goes GPU by GPU — and a Count in place of a builder
// yields a member's exact op and edge counts without storing anything.
package collective

import (
	"fmt"

	"atlahs/internal/goal"
)

// Kind enumerates collective operations.
type Kind int

// Collective kinds.
const (
	Allreduce Kind = iota
	Bcast
	Allgather
	ReduceScatter
	Alltoall
	Barrier
	Reduce
	Gather
	Scatter
)

func (k Kind) String() string {
	switch k {
	case Allreduce:
		return "allreduce"
	case Bcast:
		return "bcast"
	case Allgather:
		return "allgather"
	case ReduceScatter:
		return "reducescatter"
	case Alltoall:
		return "alltoall"
	case Barrier:
		return "barrier"
	case Reduce:
		return "reduce"
	case Gather:
		return "gather"
	case Scatter:
		return "scatter"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Algo selects the decomposition algorithm.
type Algo int

// Algorithms. Auto picks the conventional default for the kind and size.
const (
	Auto Algo = iota
	Ring
	RecDoubling
	Binomial
	Pairwise
	Linear
)

func (a Algo) String() string {
	switch a {
	case Auto:
		return "auto"
	case Ring:
		return "ring"
	case RecDoubling:
		return "recdoubling"
	case Binomial:
		return "binomial"
	case Pairwise:
		return "pairwise"
	case Linear:
		return "linear"
	default:
		return fmt.Sprintf("algo(%d)", int(a))
	}
}

// Protocol models NCCL_PROTO.
type Protocol int

// Protocols. Simple maximises bandwidth with large chunks; LL (low
// latency) interleaves flags with data — half the effective bandwidth,
// much smaller chunks, no extra synchronisation.
const (
	Simple Protocol = iota
	LL
)

// Default chunk sizes per protocol (NCCL buffer-size defaults).
const (
	SimpleChunk = 512 * 1024
	LLChunk     = 16 * 1024
)

// Options tunes a decomposition.
type Options struct {
	// Channels is the number of parallel rings/trees the payload is split
	// over (NCCL_MAX_NCHANNELS). Default 1.
	Channels int
	// Protocol selects Simple or LL framing.
	Protocol Protocol
	// ChunkBytes caps the bytes of one pipelined chunk; 0 picks the
	// protocol default.
	ChunkBytes int64
	// CPU is the compute stream the generated ops run on.
	CPU int32
	// ChannelStreams places each channel's ops on its own compute stream
	// (CPU + channel), modelling NCCL's one-SM-per-channel execution
	// (paper Fig 4: "NCCL uses 1 SM").
	ChannelStreams bool
	// TagBase namespaces this collective's messages; successive collectives
	// over the same ranks must use distinct bases (see TagSpan).
	TagBase int32
	// ReduceNsPerByte, when positive, inserts calc ops charging the local
	// reduction cost after each reducing receive.
	ReduceNsPerByte float64
}

func (o Options) channels() int {
	if o.Channels <= 0 {
		return 1
	}
	return o.Channels
}

// cpuFor returns the compute stream for a channel's ops.
func (o Options) cpuFor(channel int) int32 {
	if o.ChannelStreams {
		return o.CPU + int32(channel)
	}
	return o.CPU
}

func (o Options) chunk() int64 {
	if o.ChunkBytes > 0 {
		return o.ChunkBytes
	}
	if o.Protocol == LL {
		return LLChunk
	}
	return SimpleChunk
}

// WireBytes returns the bytes actually serialised for a payload under the
// protocol: LL doubles them (4 B of flags per 4 B of data).
func WireBytes(p Protocol, payload int64) int64 {
	if p == LL {
		return 2 * payload
	}
	return payload
}

// TagSpan is the number of consecutive tags one collective may consume;
// callers advancing TagBase by TagSpan per collective never collide.
const TagSpan = 64

// smallAllreduceBytes is the Auto-algorithm switch point between
// recursive doubling and ring for allreduce.
const smallAllreduceBytes = 16 * 1024

// Emitter receives one member's ops: it numbers the ops it is given, as a
// goal.RankBuilder does, and records that op requires dep. Require takes
// one dependency because a variadic call through an interface allocates
// its argument slice.
type Emitter interface {
	CalcOn(nanos int64, cpu int32) goal.OpID
	SendOn(size int64, dst int, tag, cpu int32) goal.OpID
	RecvOn(size int64, src int, tag, cpu int32) goal.OpID
	Require(op, dep goal.OpID)
}

// Count is an Emitter that keeps nothing but how many ops and edges were
// emitted onto it, numbering ops from 0 as a rank builder starting empty
// would.
type Count struct {
	Ops, Edges int
}

func (c *Count) add() goal.OpID {
	c.Ops++
	return goal.OpID(c.Ops - 1)
}

// CalcOn counts a calc.
func (c *Count) CalcOn(int64, int32) goal.OpID { return c.add() }

// SendOn counts a send.
func (c *Count) SendOn(int64, int, int32, int32) goal.OpID { return c.add() }

// RecvOn counts a receive.
func (c *Count) RecvOn(int64, int, int32, int32) goal.OpID { return c.add() }

// Require counts an edge.
func (c *Count) Require(goal.OpID, goal.OpID) { c.Edges++ }

// Decompose emits onto e the ops of the member at position pos of the
// collective and returns the member's exit: the op after which the
// collective is complete on that rank.
//
//   - ranks lists the participating global ranks in communicator order;
//     they must be distinct ranks of the schedule e belongs to (the caller
//     checks this once per group, not per call).
//   - root is the communicator-relative root index (bcast/reduce/gather/
//     scatter); ignored otherwise.
//   - bytes is the payload size per rank (allreduce/bcast: the full vector;
//     alltoall/allgather: the per-peer contribution).
//   - entry, when not -1, is an op of the member that its first ops must
//     require.
//
// A rejected collective is rejected at every position, before anything is
// emitted.
func Decompose(e Emitter, kind Kind, algo Algo, ranks []int, pos, root int, bytes int64, opt Options, entry goal.OpID) (goal.OpID, error) {
	if len(ranks) == 0 {
		return -1, fmt.Errorf("collective: empty rank group")
	}
	if pos < 0 || pos >= len(ranks) {
		return -1, fmt.Errorf("collective: position %d outside a group of %d", pos, len(ranks))
	}
	if bytes < 0 {
		return -1, fmt.Errorf("collective: negative size %d", bytes)
	}
	if opt.channels() > TagSpan {
		return -1, fmt.Errorf("collective: %d channels exceed the %d tags one collective may use", opt.channels(), TagSpan)
	}
	if root < 0 || root >= len(ranks) {
		root = 0
	}
	m := member{e: e, ranks: ranks, n: len(ranks), pos: pos, root: root, bytes: bytes, opt: opt, entry: entry}
	if m.n == 1 {
		// single-rank collectives are no-ops; emit a zero calc for the exit
		id := e.CalcOn(0, opt.CPU)
		m.require(id, entry)
		return id, nil
	}
	switch kind {
	case Allreduce:
		switch algo {
		case Auto:
			// the conventional MPI switch: latency-optimal recursive
			// doubling for small payloads, bandwidth-optimal ring above
			if bytes <= smallAllreduceBytes {
				return m.recDoublingAllreduce(), nil
			}
			return m.ringAllreduce(), nil
		case Ring:
			return m.ringAllreduce(), nil
		case RecDoubling:
			return m.recDoublingAllreduce(), nil
		}
	case Bcast:
		switch algo {
		case Ring:
			return m.ringBcast(), nil
		case Auto, Binomial:
			return m.binomialBcast(), nil
		}
	case Allgather:
		switch algo {
		case Auto, Ring:
			return m.ringAllgather(), nil
		}
	case ReduceScatter:
		switch algo {
		case Auto, Ring:
			return m.ringReduceScatter(), nil
		}
	case Alltoall:
		switch algo {
		case Auto, Pairwise:
			return m.pairwiseAlltoall(), nil
		}
	case Barrier:
		return m.disseminationBarrier(), nil
	case Reduce:
		switch algo {
		case Auto, Binomial:
			return m.binomialReduce(), nil
		}
	case Gather:
		return m.linearGather(), nil
	case Scatter:
		return m.linearScatter(), nil
	}
	return -1, fmt.Errorf("collective: %v does not support algorithm %v", kind, algo)
}

// member is one position's view of a collective: everything its
// decomposition reads. It lives on Decompose's stack.
type member struct {
	e         Emitter
	ranks     []int
	n         int
	pos, root int
	bytes     int64
	opt       Options
	entry     goal.OpID
}

// rank returns the global rank at group position i, taken modulo the
// group size.
func (m *member) rank(i int) int { return m.ranks[(i%m.n+m.n)%m.n] }

// wire returns the bytes serialised for a payload under the protocol.
func (m *member) wire(payload int64) int64 { return WireBytes(m.opt.Protocol, payload) }

// require wires dep into op if dep is a valid op.
func (m *member) require(op, dep goal.OpID) {
	if dep >= 0 {
		m.e.Require(op, dep)
	}
}

// join returns the single terminal op, or merges several into one
// zero-cost exit op (the paper's dummy vertices) that requires each in
// turn.
func (m *member) join(terminals ...goal.OpID) goal.OpID {
	if len(terminals) == 1 {
		return terminals[0]
	}
	d := m.e.CalcOn(0, m.opt.CPU)
	for _, t := range terminals {
		m.e.Require(d, t)
	}
	return d
}

// share returns part k of total divided into parts as evenly as possible
// (earlier parts get the remainder).
func share(total int64, parts, k int) int64 {
	s := total / int64(parts)
	if int64(k) < total%int64(parts) {
		s++
	}
	return s
}

// chunks returns how many pipelined chunks of at most chunk bytes total
// splits into: at least one, possibly zero-sized. Chunk k holds
// min(chunk, total-k*chunk) bytes.
func chunks(total, chunk int64) int64 {
	if total <= 0 {
		return 1
	}
	n := total / chunk
	if total%chunk != 0 {
		n++
	}
	return n
}

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
// All generators append to a goal.Builder and wire dependencies through
// entry ops (per participating rank) to exit ops, so collectives compose
// into larger schedules.
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

// Decompose appends the P2P schedule of the collective to b.
//
//   - ranks lists the participating global ranks in communicator order.
//   - root is the communicator-relative root index (bcast/reduce/gather/
//     scatter); ignored otherwise.
//   - bytes is the payload size per rank (allreduce/bcast: the full vector;
//     alltoall/allgather: the per-peer contribution).
//   - entry[i], when non-nil, is an op the first ops of ranks[i] must
//     require (-1 for none).
//
// It returns one exit op per rank position: the op after which the
// collective is complete on that rank.
func Decompose(b *goal.Builder, kind Kind, algo Algo, ranks []int, root int, bytes int64, opt Options, entry []goal.OpID) ([]goal.OpID, error) {
	if len(ranks) == 0 {
		return nil, fmt.Errorf("collective: empty rank group")
	}
	if err := checkRanks(b, ranks); err != nil {
		return nil, err
	}
	if entry != nil && len(entry) != len(ranks) {
		return nil, fmt.Errorf("collective: entry length %d != %d ranks", len(entry), len(ranks))
	}
	if bytes < 0 {
		return nil, fmt.Errorf("collective: negative size %d", bytes)
	}
	if opt.channels() > TagSpan {
		return nil, fmt.Errorf("collective: %d channels exceed the %d tags one collective may use", opt.channels(), TagSpan)
	}
	if root < 0 || root >= len(ranks) {
		root = 0
	}
	if len(ranks) == 1 {
		// single-rank collectives are no-ops; emit a zero calc for the exit
		rb := b.Rank(ranks[0])
		id := rb.CalcOn(0, opt.CPU)
		if e := entryOf(entry, 0); e >= 0 {
			rb.Requires(id, e)
		}
		return []goal.OpID{id}, nil
	}
	switch kind {
	case Allreduce:
		switch algo {
		case Auto:
			// the conventional MPI switch: latency-optimal recursive
			// doubling for small payloads, bandwidth-optimal ring above
			if bytes <= smallAllreduceBytes {
				return recDoublingAllreduce(b, ranks, bytes, opt, entry), nil
			}
			return ringAllreduce(b, ranks, bytes, opt, entry), nil
		case Ring:
			return ringAllreduce(b, ranks, bytes, opt, entry), nil
		case RecDoubling:
			return recDoublingAllreduce(b, ranks, bytes, opt, entry), nil
		}
	case Bcast:
		switch algo {
		case Ring:
			return ringBcast(b, ranks, root, bytes, opt, entry), nil
		case Auto, Binomial:
			return binomialBcast(b, ranks, root, bytes, opt, entry), nil
		}
	case Allgather:
		switch algo {
		case Auto, Ring:
			return ringAllgather(b, ranks, bytes, opt, entry), nil
		}
	case ReduceScatter:
		switch algo {
		case Auto, Ring:
			return ringReduceScatter(b, ranks, bytes, opt, entry), nil
		}
	case Alltoall:
		switch algo {
		case Auto, Pairwise:
			return pairwiseAlltoall(b, ranks, bytes, opt, entry), nil
		}
	case Barrier:
		return disseminationBarrier(b, ranks, opt, entry), nil
	case Reduce:
		switch algo {
		case Auto, Binomial:
			return binomialReduce(b, ranks, root, bytes, opt, entry), nil
		}
	case Gather:
		return linearGather(b, ranks, root, bytes, opt, entry), nil
	case Scatter:
		return linearScatter(b, ranks, root, bytes, opt, entry), nil
	}
	return nil, fmt.Errorf("collective: %v does not support algorithm %v", kind, algo)
}

func checkRanks(b *goal.Builder, ranks []int) error {
	seen := map[int]bool{}
	for _, r := range ranks {
		if r < 0 || r >= b.NumRanks() {
			return fmt.Errorf("collective: rank %d out of range [0,%d)", r, b.NumRanks())
		}
		if seen[r] {
			return fmt.Errorf("collective: duplicate rank %d in group", r)
		}
		seen[r] = true
	}
	return nil
}

func entryOf(entry []goal.OpID, i int) goal.OpID {
	if entry == nil {
		return -1
	}
	return entry[i]
}

// requireEntry wires dep into op if dep is a valid op.
func requireEntry(rb *goal.RankBuilder, op, dep goal.OpID) {
	if dep >= 0 {
		rb.Requires(op, dep)
	}
}

// exitOf merges multiple terminal ops into a single zero-cost exit op when
// needed (the paper's dummy vertices).
func exitOf(rb *goal.RankBuilder, opt Options, terminals ...goal.OpID) goal.OpID {
	live := terminals[:0]
	for _, t := range terminals {
		if t >= 0 {
			live = append(live, t)
		}
	}
	if len(live) == 1 {
		return live[0]
	}
	d := rb.CalcOn(0, opt.CPU)
	for _, t := range live {
		rb.Requires(d, t)
	}
	return d
}

// chunksOf splits total into pipelined chunks of at most chunk bytes,
// returning each chunk's size (at least one chunk, possibly zero-sized).
func chunksOf(total, chunk int64) []int64 {
	if total <= 0 {
		return []int64{0}
	}
	var out []int64
	for total > 0 {
		c := chunk
		if total < c {
			c = total
		}
		out = append(out, c)
		total -= c
	}
	return out
}

// splitAcross divides total across n parts as evenly as possible (earlier
// parts get the remainder).
func splitAcross(total int64, n int) []int64 {
	out := make([]int64, n)
	base := total / int64(n)
	rem := total % int64(n)
	for i := range out {
		out[i] = base
		if int64(i) < rem {
			out[i]++
		}
	}
	return out
}

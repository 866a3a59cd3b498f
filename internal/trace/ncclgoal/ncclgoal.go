// Package ncclgoal implements the four-stage GOAL generation pipeline for
// AI applications (paper §3.1.2 and Fig 5):
//
//	Stage 1 — extract per-GPU, per-CUDA-stream activity from the nsys-like
//	          report (sorted kernel and NCCL records).
//	Stage 2 — build per-stream op chains, inferring computation from the
//	          timestamps between NCCL kernels, and connect streams through
//	          zero-cost dummy vertices so multi-stream concurrency is
//	          preserved; each CUDA stream maps to its own GOAL compute
//	          stream.
//	Stage 3 — decompose every NCCL operation into sends/recvs/calcs using
//	          the channel-, protocol- and buffer-aware algorithms in
//	          internal/collective (ring broadcast chunking per Fig 4).
//	Stage 4 — group GPU DAGs into per-node DAGs (configurable GPUs per
//	          node for "what-if" restructuring), replacing intra-node
//	          sends/receives with calc vertices costed at the intra-node
//	          interconnect bandwidth.
//
// How the two schedules are built (goal.Builder states the contract).
// Stage 4's node-level schedule, the one that is kept, is counted exactly
// and written in order: every GPU op becomes one node op at a known
// position, every edge is a copied edge or the pair edge of an intra-node
// receive, and GroupGPUs pairs the transfers before it emits any edge — so
// each rank's arrays are allocated once at their final size and the
// tables are CSR from the first edge on. The GPU-level schedule of stages
// 1-3 is a temporary and cannot be: what a collective decomposes into is
// known only by decomposing it, so stage 2 reserves a bound taken from
// the stream index and stage 3 grows from there; and stage 3 wires every
// decomposed op to the exit dummy stage 2 created (exit requires op),
// which names an op older than the ones it has just added, so each GPU's
// Requires table spills to the builder's log at its first collective.
// Reordering that would renumber ops, and with them the bytes of every
// schedule this pipeline has ever produced.
package ncclgoal

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"atlahs/internal/collective"
	"atlahs/internal/goal"
	"atlahs/internal/trace/nsys"
)

// Config parameterises the pipeline.
type Config struct {
	// GPUsPerNode controls stage 4 grouping (paper: traces from an 8-GPU
	// 2-node setup can be restructured to 4 nodes of 2 GPUs).
	GPUsPerNode int
	// IntraNsPerByte is the per-byte cost of intra-node GPU-GPU transfers
	// (default: 150 GB/s NVLink as on Alps GH200 => 1/150 ns/B).
	IntraNsPerByte float64
	// Channels, Protocol, ChunkBytes mirror NCCL_MAX_NCHANNELS, NCCL_PROTO
	// and the buffer size driving collective decomposition.
	Channels   int
	Protocol   collective.Protocol
	ChunkBytes int64
}

func (c Config) withDefaults(ngpus int) Config {
	if c.GPUsPerNode <= 0 {
		c.GPUsPerNode = 4
	}
	if c.GPUsPerNode > ngpus {
		c.GPUsPerNode = ngpus
	}
	if c.IntraNsPerByte <= 0 {
		c.IntraNsPerByte = 1.0 / 150.0
	}
	return c
}

var collToKind = map[string]collective.Kind{
	nsys.CollAllReduce:     collective.Allreduce,
	nsys.CollBroadcast:     collective.Bcast,
	nsys.CollAllGather:     collective.Allgather,
	nsys.CollReduceScatter: collective.ReduceScatter,
	nsys.CollAllToAll:      collective.Alltoall,
}

const (
	p2pTagBase  = 1 << 20
	collTagBase = 1 << 24
)

// Generate runs the full pipeline: nsys report -> node-level GOAL schedule.
func Generate(rep *nsys.Report, cfg Config) (*goal.Schedule, error) {
	gpuSched, err := BuildGPUSchedule(rep, cfg)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(rep.NGPUs)
	return GroupGPUs(gpuSched, cfg.GPUsPerNode, cfg.IntraNsPerByte)
}

// pendingOp is an NCCL record awaiting stage-3 decomposition, bracketed by
// its entry and exit dummies in the owning stream chain.
type pendingOp struct {
	rec   *nsys.Record
	entry goal.OpID
	exit  goal.OpID
}

// BuildGPUSchedule runs stages 1-3, producing a GPU-level schedule (one
// GOAL rank per GPU; CUDA streams become GOAL compute streams).
func BuildGPUSchedule(rep *nsys.Report, cfg Config) (*goal.Schedule, error) {
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(rep.NGPUs)
	b := goal.NewBuilder(rep.NGPUs)

	// global t0 preserves cross-GPU launch skew as leading computation
	t0 := int64(0)
	if len(rep.Records) > 0 {
		t0 = rep.Records[0].StartNs
		for i := range rep.Records {
			if s := rep.Records[i].StartNs; s < t0 {
				t0 = s
			}
		}
	}

	// the dedicated NCCL stream: decomposed communication ops occupy their
	// own compute stream per GPU (NCCL runs on its own SM, paper Fig 4),
	// so comm never falsely serialises with compute kernels. With
	// ChannelStreams each channel gets ncclCPU + channel.
	streams := rep.ByStream()
	maxStreams := 0
	for _, st := range streams {
		maxStreams = max(maxStreams, len(st))
	}
	ncclCPU := int32(maxStreams)

	// stages 1+2: per-stream chains with dummies around NCCL records
	perComm := map[string][]pendingOp{} // appended in (gpu, stream, time) order
	for gpu := 0; gpu < rep.NGPUs; gpu++ {
		rb := b.Rank(gpu)
		// A record becomes at most three ops here (a gap, then a kernel or
		// an entry/exit pair), each with one edge. Stage 3 cannot be
		// counted without running it: it starts in what this bound leaves
		// over and grows from there.
		nrec := 0
		for _, stream := range streams[gpu] {
			nrec += len(stream.Records)
		}
		rb.Grow(3*nrec, 3*nrec, 0)
		for li, stream := range streams[gpu] {
			cpu := int32(li)
			var head goal.OpID = -1
			lastEnd := t0
			chain := func(id goal.OpID) {
				if head >= 0 {
					rb.Requires(id, head)
				}
				head = id
			}
			for _, ri := range stream.Records {
				rec := &rep.Records[ri]
				if gap := rec.StartNs - lastEnd; gap > 0 {
					chain(rb.CalcOn(gap, cpu))
				}
				switch rec.Kind {
				case nsys.KindKernel:
					// compute kernels are calc vertices with their measured
					// duration
					chain(rb.CalcOn(rec.EndNs-rec.StartNs, cpu))
					lastEnd = rec.EndNs
				case nsys.KindNCCL:
					// bracket with dummies; the communication itself is
					// re-simulated, so its traced duration is discarded
					entry := rb.CalcOn(0, cpu)
					chain(entry)
					exit := rb.CalcOn(0, cpu)
					rb.Requires(exit, entry)
					head = exit
					perComm[rec.Comm] = append(perComm[rec.Comm], pendingOp{rec: rec, entry: entry, exit: exit})
					lastEnd = rec.EndNs
				}
			}
		}
	}

	// stage 3: decompose per communicator
	commNames := make([]string, 0, len(perComm))
	for name := range perComm {
		commNames = append(commNames, name)
	}
	sort.Strings(commNames)
	collInstance := 0
	pos := make([]int32, rep.NGPUs) // GPU -> communicator-relative rank + 1, shared by all communicators
	for ci, name := range commNames {
		members := rep.Comms[name]
		if err := decomposeComm(b, name, int32(ci), members, pos, perComm[name], cfg, ncclCPU, &collInstance); err != nil {
			return nil, err
		}
	}

	sch := b.Build()
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	return sch, nil
}

// decomposeComm replays one communicator's NCCL operations: collectives in
// lockstep across members, P2P sends/recvs paired FIFO. All generated
// communication ops run on the dedicated NCCL stream(s) starting at
// ncclCPU.
//
// pos is all zeros on entry and on return; in between pos[g]-1 is GPU g's
// rank in this communicator.
func decomposeComm(b *goal.Builder, name string, commIdx int32, members []int, pos []int32, ops []pendingOp, cfg Config, ncclCPU int32, collInstance *int) error {
	for i, g := range members {
		pos[g] = int32(i) + 1
	}
	defer func() {
		for _, g := range members {
			pos[g] = 0
		}
	}()
	// per-member queues of pending ops, in launch order: ops is ordered by
	// (gpu, stream, time), so one stable sort by gpu makes each member's
	// ops contiguous, and one by record start time within each orders
	// multi-stream communicators
	for _, p := range ops {
		if pos[p.rec.GPU] == 0 {
			return fmt.Errorf("ncclgoal: comm %q used by non-member GPU %d", name, p.rec.GPU)
		}
	}
	slices.SortStableFunc(ops, func(a, c pendingOp) int {
		return cmp.Or(cmp.Compare(pos[a.rec.GPU], pos[c.rec.GPU]), cmp.Compare(a.rec.StartNs, c.rec.StartNs))
	})
	perMember := make([][]pendingOp, len(members))
	for lo := 0; lo < len(ops); {
		hi := lo + 1
		for hi < len(ops) && ops[hi].rec.GPU == ops[lo].rec.GPU {
			hi++
		}
		perMember[pos[ops[lo].rec.GPU]-1] = ops[lo:hi]
		lo = hi
	}
	idx := make([]int, len(members))
	p2pTag := p2pTagBase + commIdx
	for {
		// find the next collective for every member, emitting P2P ops that
		// precede it
		for i := range members {
			for idx[i] < len(perMember[i]) {
				p := perMember[i][idx[i]]
				if p.rec.Coll != nsys.CollSend && p.rec.Coll != nsys.CollRecv {
					break
				}
				rb := b.Rank(p.rec.GPU)
				peer := members[p.rec.Peer]
				cpu := ncclCPU
				var op goal.OpID
				if p.rec.Coll == nsys.CollSend {
					op = rb.SendOn(collective.WireBytes(cfg.Protocol, p.rec.Bytes), peer, p2pTag, cpu)
				} else {
					op = rb.RecvOn(collective.WireBytes(cfg.Protocol, p.rec.Bytes), peer, p2pTag, cpu)
				}
				rb.Requires(op, p.entry)
				rb.Requires(p.exit, op)
				idx[i]++
			}
		}
		// all members must now agree on the next collective (or be done)
		var ref *pendingOp
		anyPending := false
		for i := range members {
			if idx[i] < len(perMember[i]) {
				anyPending = true
				if ref == nil {
					ref = &perMember[i][idx[i]]
				}
			}
		}
		if !anyPending {
			break
		}
		for i := range members {
			if idx[i] >= len(perMember[i]) {
				return fmt.Errorf("ncclgoal: comm %q: GPU %d missing collective #%d (%s)",
					name, members[i], idx[i], ref.rec.Coll)
			}
			p := perMember[i][idx[i]]
			if p.rec.Coll != ref.rec.Coll {
				return fmt.Errorf("ncclgoal: comm %q: GPU %d launches %s while GPU %d launches %s",
					name, p.rec.GPU, p.rec.Coll, ref.rec.GPU, ref.rec.Coll)
			}
		}
		kind, ok := collToKind[ref.rec.Coll]
		if !ok {
			return fmt.Errorf("ncclgoal: unsupported collective %q", ref.rec.Coll)
		}
		entries := make([]goal.OpID, len(members))
		for i := range members {
			entries[i] = perMember[i][idx[i]].entry
		}
		algo := collective.Auto
		if kind == collective.Bcast {
			algo = collective.Ring // NCCL broadcasts are ring-pipelined (Fig 4)
		}
		exits, err := collective.Decompose(b, kind, algo, members, ref.rec.Root, ref.rec.Bytes, collective.Options{
			Channels:       cfg.Channels,
			Protocol:       cfg.Protocol,
			ChunkBytes:     cfg.ChunkBytes,
			CPU:            ncclCPU,
			ChannelStreams: true,
			TagBase:        int32(collTagBase + *collInstance*collective.TagSpan),
		}, entries)
		if err != nil {
			return fmt.Errorf("ncclgoal: comm %q: %w", name, err)
		}
		*collInstance++
		for i := range members {
			rb := b.Rank(members[i])
			rb.Requires(perMember[i][idx[i]].exit, exits[i])
			idx[i]++
		}
	}
	return nil
}

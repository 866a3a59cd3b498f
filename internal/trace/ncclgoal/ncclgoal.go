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
//	Stage 4 — group GPU DAGs into per-node DAGs (Config.GPUsPerNode GPUs
//	          per node, for "what-if" restructuring), replacing intra-node
//	          sends/receives with calc vertices costed at the intra-node
//	          interconnect bandwidth.
//
// The stages run as two passes over the report, and only the node-level
// schedule is ever built. A GPU's ops are numbered as if it had a rank of
// its own — its stage-2 chains first, then its stage-3 communication,
// communicator by communicator — and op i of GPU g is op base[g]+i of its
// node, the GPUs of a node following each other in ascending order.
//
//   - The plan pass runs stages 2-3 through a counting emitter per GPU
//     and stores no ops. It checks that every communicator's members
//     launch the same collectives in the same order, each of the same size
//     and, for a broadcast, from the same root (decomposing each
//     collective per member, in lockstep), and yields each GPU's exact op
//     and edge counts, the GPU op every stage-2 exit waits for (the last
//     op of the record's stage-3 communication), the intra-node transfers
//     paired up, and the stage-4 stream stride, which is the maximum over
//     the whole schedule.
//   - The emit pass runs stages 2-3 again, GPU by GPU, onto the node
//     schedule's one goal.Builder, rewriting each op as it is emitted:
//     the GPU's streams move to its own range of the node's, intra-node
//     sends and receives become calcs, and cross-node tags are densified
//     per (source GPU, destination GPU, tag) in order of first use.
//
// Every node rank is grown once at its exact size, and every op receives
// all its dependencies right after it is added, in the order the stages
// give them: a stage-2 exit requires its entry and then its stage-3 op
// (a later op, which the plan named), an intra-node receive gets its pair
// edge after its own dependencies. So the dependency tables are written
// in place and nothing is sorted or regrown.
package ncclgoal

import (
	"cmp"
	"fmt"
	"slices"

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

// Generate runs the pipeline: nsys report -> node-level GOAL schedule.
// Its tables live in a kept scratch (see kept), and the schedule
// shares nothing with them or with rep.
func Generate(rep *nsys.Report, cfg Config) (*goal.Schedule, error) {
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	s := kept.Take()
	defer s.release()
	return s.plan.generate(rep, cfg)
}

// pendingOp is one NCCL record. Stage 2 brackets it with an entry and an
// exit dummy in its stream's chain; stage 3 emits its communication in
// between. Op ids are the GPU's own.
type pendingOp struct {
	rec         *nsys.Record
	entry, exit goal.OpID
	// What the plan found: last is the stage-3 op the exit waits for;
	// comm indexes plan.comms; a collective's members all decompose coll,
	// the record of its first member, as instance inst at position pos.
	last            goal.OpID
	comm, pos, inst int32
	coll            *nsys.Record
}

// plan is what the plan pass learns about the report, and all the emit
// pass needs besides it. Its arrays are a scratch's, sized for the
// largest report the scratch has served and resliced for each; every
// element a conversion reads it has written first, or cleared.
type plan struct {
	rep     *nsys.Report
	cfg     Config
	t0      int64 // the earliest record start: cross-GPU launch skew becomes leading computation
	ncclCPU int32 // the first of the GPU's NCCL streams (see build)

	// Stage 1: byStream holds the positions in rep.Records sorted by
	// (GPU, stream, start time), file order on ties. Stream s is
	// byStream[streamLo[s]:streamLo[s+1]], and GPU g's streams, by
	// ascending id, are those from gpuLo[g] to gpuLo[g+1].
	byStream, streamLo, gpuLo []int32

	// the communicators NCCL records use, in name order, and their index
	names   []string
	comms   [][]int
	commIdx map[string]int32

	// GPU g's NCCL records are pending[lo[g]:lo[g+1]] in stream order;
	// order[lo[g]:lo[g+1]] indexes them in stage-3 order. byComm lists
	// them communicator by communicator, communicator c's from commLo[c]
	// on; fill and cur are the plan pass's working arrays.
	pending        []pendingOp
	lo             []int32
	order          []int32
	byComm, commLo []int32
	fill, cur      []int32

	gpus   []planner
	stride int32 // compute streams per GPU on its node

	// Stage 4: base[g] is the node op of GPU g's op 0, sendOf[k] the node
	// op of the send the k-th intra-node receive (in emit order) pairs
	// with; sends and recvs are the intra-node transfers pair collects,
	// and tags the emit pass's dense cross-node tags.
	base         []goal.OpID
	sendOf       []goal.OpID
	sends, recvs []xfer
	tags         map[pairKey]int32
}

func (p *plan) nodeOf(g int) int { return g / p.cfg.GPUsPerNode }

// intra reports whether a transfer between GPUs g and h stays in a node.
func (p *plan) intra(g, h int) bool { return p.nodeOf(g) == p.nodeOf(h) }

// generate runs both passes over a valid report.
func (p *plan) generate(rep *nsys.Report, cfg Config) (*goal.Schedule, error) {
	if err := p.build(rep, cfg.withDefaults(rep.NGPUs)); err != nil {
		return nil, err
	}
	return p.emit()
}

// resize returns s with length n, on its own array when that is large
// enough. The elements are whatever the array held.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// index runs stage 1: one stable sort of all the records by stream.
func (p *plan) index() {
	recs := p.rep.Records
	p.byStream = resize(p.byStream, len(recs))
	for i := range p.byStream {
		p.byStream[i] = int32(i)
	}
	slices.SortStableFunc(p.byStream, func(a, b int32) int {
		x, y := &recs[a], &recs[b]
		return cmp.Or(cmp.Compare(x.GPU, y.GPU), cmp.Compare(x.Stream, y.Stream), cmp.Compare(x.StartNs, y.StartNs))
	})
	p.streamLo = p.streamLo[:0]
	p.gpuLo = resize(p.gpuLo, p.rep.NGPUs+1)
	clear(p.gpuLo)
	for k, ri := range p.byStream {
		rec := &recs[ri]
		if k == 0 || recs[p.byStream[k-1]].GPU != rec.GPU || recs[p.byStream[k-1]].Stream != rec.Stream {
			p.streamLo = append(p.streamLo, int32(k))
			p.gpuLo[rec.GPU+1]++
		}
	}
	p.streamLo = append(p.streamLo, int32(len(p.byStream)))
	for g := range p.rep.NGPUs {
		p.gpuLo[g+1] += p.gpuLo[g]
	}
}

// stream returns the positions of stream s's records in time order.
func (p *plan) stream(s int32) []int32 { return p.byStream[p.streamLo[s]:p.streamLo[s+1]] }

// build runs the plan pass.
func (p *plan) build(rep *nsys.Report, cfg Config) error {
	p.rep, p.cfg, p.t0, p.ncclCPU, p.stride = rep, cfg, 0, 0, 1
	p.index()
	if len(rep.Records) > 0 {
		p.t0 = rep.Records[0].StartNs
		for i := range rep.Records {
			p.t0 = min(p.t0, rep.Records[i].StartNs)
		}
	}
	// the dedicated NCCL stream: decomposed communication ops occupy their
	// own compute stream per GPU (NCCL runs on its own SM, paper Fig 4),
	// so comm never falsely serialises with compute kernels. With
	// ChannelStreams each channel gets ncclCPU + channel.
	for g := range rep.NGPUs {
		p.ncclCPU = max(p.ncclCPU, p.gpuLo[g+1]-p.gpuLo[g])
	}

	// the communicators NCCL records use, indexed in name order
	if p.commIdx == nil {
		p.commIdx = make(map[string]int32, len(rep.Comms))
	}
	clear(p.commIdx)
	p.lo = resize(p.lo, rep.NGPUs+1)
	clear(p.lo)
	for i := range rep.Records {
		if rec := &rep.Records[i]; rec.Kind == nsys.KindNCCL {
			p.commIdx[rec.Comm] = 0
			p.lo[rec.GPU+1]++
		}
	}
	p.names = p.names[:0]
	for name := range p.commIdx {
		p.names = append(p.names, name)
	}
	slices.Sort(p.names)
	p.comms = resize(p.comms, len(p.names))
	for i, name := range p.names {
		p.commIdx[name] = int32(i)
		p.comms[i] = rep.Comms[name]
	}
	for g := range rep.NGPUs {
		p.lo[g+1] += p.lo[g]
	}

	// stages 1+2
	p.pending = resize(p.pending, int(p.lo[rep.NGPUs]))
	p.gpus = resize(p.gpus, rep.NGPUs)
	for g := range p.gpus {
		pg := &p.gpus[g]
		*pg = planner{pl: p, gpu: int32(g), neg: -1}
		p.chains(pg, g)
		pg.stage3 = goal.OpID(pg.Ops)
	}

	// stage 3, communicator by communicator: each communicator's records
	// grouped by member, each member's in launch order (start time, then
	// stream), which a stable sort of the stream-ordered records gives
	p.byComm = resize(p.byComm, len(p.pending))
	p.commLo = resize(p.commLo, len(p.names)+1)
	clear(p.commLo)
	for k := range p.pending {
		c := p.commIdx[p.pending[k].rec.Comm]
		p.pending[k].comm = c
		p.commLo[c+1]++
	}
	for c := range p.names {
		p.commLo[c+1] += p.commLo[c]
	}
	p.fill = append(p.fill[:0], p.commLo[:len(p.names)]...)
	for k := range p.pending {
		c := p.pending[k].comm
		p.byComm[p.fill[c]] = int32(k)
		p.fill[c]++
	}
	p.order = resize(p.order, len(p.pending))
	p.cur = resize(p.cur, 4*rep.NGPUs)
	clear(p.cur)
	n := rep.NGPUs
	st := cursors{pos: p.cur[:n], first: p.cur[n : 2*n], n: p.cur[2*n : 3*n], idx: p.cur[3*n:]}
	for c, name := range p.names {
		if err := p.lockstep(&st, name, int32(c), p.byComm[p.commLo[c]:p.commLo[c+1]]); err != nil {
			return err
		}
	}

	// what the GPU-level schedule's validation used to reject
	for g := range p.gpus {
		if pg := &p.gpus[g]; pg.neg >= 0 {
			return fmt.Errorf("goal: rank %d op %d: negative size %d", g, pg.neg, pg.negSize)
		}
	}
	return p.pair()
}

// chains emits GPU g's stages 1-2 onto e: one op chain per CUDA stream, on
// its own compute stream, with the computation between records inferred
// from their timestamps and each NCCL record bracketed by an entry and an
// exit dummy. The exit requires its entry, then the record's last stage-3
// op — not known yet on the plan pass, whose emitter only counts the edge.
func (p *plan) chains(e collective.Emitter, g int) {
	k := p.lo[g]
	for si := p.gpuLo[g]; si < p.gpuLo[g+1]; si++ {
		cpu := si - p.gpuLo[g]
		head := goal.OpID(-1)
		lastEnd := p.t0
		chain := func(id goal.OpID) {
			if head >= 0 {
				e.Require(id, head)
			}
			head = id
		}
		for _, ri := range p.stream(si) {
			rec := &p.rep.Records[ri]
			if gap := rec.StartNs - lastEnd; gap > 0 {
				chain(e.CalcOn(gap, cpu))
			}
			switch rec.Kind {
			case nsys.KindKernel:
				// compute kernels are calc vertices with their measured
				// duration
				chain(e.CalcOn(rec.EndNs-rec.StartNs, cpu))
			case nsys.KindNCCL:
				// the communication itself is re-simulated, so its traced
				// duration is discarded
				po := &p.pending[k]
				k++
				po.rec = rec
				po.entry = e.CalcOn(0, cpu)
				chain(po.entry)
				po.exit = e.CalcOn(0, cpu)
				e.Require(po.exit, po.entry)
				e.Require(po.exit, po.last)
				head = po.exit
			}
			lastEnd = rec.EndNs
		}
	}
}

// communicate emits po's stage-3 ops onto e and returns the last: a P2P
// record becomes one send or receive on the NCCL stream, a collective its
// decomposition at the GPU's position.
func (p *plan) communicate(e collective.Emitter, po *pendingOp) (goal.OpID, error) {
	members := p.comms[po.comm]
	if rec := po.rec; rec.Coll == nsys.CollSend || rec.Coll == nsys.CollRecv {
		wire, peer, tag := collective.WireBytes(p.cfg.Protocol, rec.Bytes), members[rec.Peer], p2pTagBase+po.comm
		var op goal.OpID
		if rec.Coll == nsys.CollSend {
			op = e.SendOn(wire, peer, tag, p.ncclCPU)
		} else {
			op = e.RecvOn(wire, peer, tag, p.ncclCPU)
		}
		e.Require(op, po.entry)
		return op, nil
	}
	kind := collToKind[po.coll.Coll]
	algo := collective.Auto
	if kind == collective.Bcast {
		algo = collective.Ring // NCCL broadcasts are ring-pipelined (Fig 4)
	}
	return collective.Decompose(e, kind, algo, members, int(po.pos), po.coll.Root, po.coll.Bytes, collective.Options{
		Channels:       p.cfg.Channels,
		Protocol:       p.cfg.Protocol,
		ChunkBytes:     p.cfg.ChunkBytes,
		CPU:            p.ncclCPU,
		ChannelStreams: true,
		TagBase:        int32(collTagBase + int(po.inst)*collective.TagSpan),
	}, po.entry)
}

// cursors is the plan pass's scratch for one communicator, indexed by
// GPU: pos[g]-1 is g's position in it (0: not a member), and g's records
// in the communicator's list are the n[g] from first[g] on, of which idx[g]
// are planned. It is cleared once per plan and left zero between
// communicators.
type cursors struct {
	pos, first, n, idx []int32
	inst               int32 // collectives planned so far, over all communicators
}

// lockstep plans one communicator's NCCL records (ops, indexes into
// p.pending): collectives in lockstep across members, P2P sends/recvs
// paired FIFO. All generated communication ops run on the dedicated NCCL
// stream(s) starting at ncclCPU.
func (p *plan) lockstep(st *cursors, name string, comm int32, ops []int32) error {
	members := p.comms[comm]
	for i, g := range members {
		st.pos[g] = int32(i) + 1
	}
	defer func() {
		for _, g := range members {
			st.pos[g], st.first[g], st.n[g], st.idx[g] = 0, 0, 0, 0
		}
	}()
	// per-member lists in launch order: ops is ordered by (gpu, stream,
	// time) — Validate made every GPU a member — so one stable sort by
	// position makes each member's records contiguous, and one by start
	// time within each orders multi-stream communicators
	gpu := func(k int32) int { return p.pending[k].rec.GPU }
	slices.SortStableFunc(ops, func(a, b int32) int {
		return cmp.Or(cmp.Compare(st.pos[gpu(a)], st.pos[gpu(b)]), cmp.Compare(p.pending[a].rec.StartNs, p.pending[b].rec.StartNs))
	})
	for lo := 0; lo < len(ops); {
		hi := lo + 1
		for hi < len(ops) && gpu(ops[hi]) == gpu(ops[lo]) {
			hi++
		}
		st.first[gpu(ops[lo])], st.n[gpu(ops[lo])] = int32(lo), int32(hi-lo)
		lo = hi
	}
	peek := func(g int) *pendingOp {
		if st.idx[g] == st.n[g] {
			return nil
		}
		return &p.pending[ops[st.first[g]+st.idx[g]]]
	}
	// take takes GPU g's next record off its list, appends it to the GPU's
	// stage-3 order and emits it onto the GPU's planner
	take := func(g int) error {
		k := ops[st.first[g]+st.idx[g]]
		st.idx[g]++
		pg := &p.gpus[g]
		p.order[p.lo[g]+pg.planned] = k
		pg.planned++
		po := &p.pending[k]
		var err error
		po.last, err = p.communicate(pg, po)
		return err
	}
	for {
		// find the next collective for every member, planning the P2P ops
		// that precede it
		for _, g := range members {
			for po := peek(g); po != nil && (po.rec.Coll == nsys.CollSend || po.rec.Coll == nsys.CollRecv); po = peek(g) {
				_ = take(g) // a P2P record cannot fail
			}
		}
		// all members must now agree on the next collective (or be done)
		var ref *pendingOp
		for _, g := range members {
			if ref = peek(g); ref != nil {
				break
			}
		}
		if ref == nil {
			return nil
		}
		for _, g := range members {
			po := peek(g)
			if po == nil {
				return fmt.Errorf("ncclgoal: comm %q: GPU %d missing collective #%d (%s)",
					name, g, st.idx[g], ref.rec.Coll)
			}
			if po.rec.Coll != ref.rec.Coll {
				return fmt.Errorf("ncclgoal: comm %q: GPU %d launches %s while GPU %d launches %s",
					name, po.rec.GPU, po.rec.Coll, ref.rec.GPU, ref.rec.Coll)
			}
			// every member decomposes ref's record, so all must agree on it
			if po.rec.Bytes != ref.rec.Bytes {
				return fmt.Errorf("ncclgoal: comm %q: GPU %d's %s #%d moves %d bytes while GPU %d's moves %d",
					name, po.rec.GPU, po.rec.Coll, st.idx[g], po.rec.Bytes, ref.rec.GPU, ref.rec.Bytes)
			}
			if po.rec.Coll == nsys.CollBroadcast && po.rec.Root != ref.rec.Root {
				return fmt.Errorf("ncclgoal: comm %q: GPU %d's broadcast #%d has root %d while GPU %d's has root %d",
					name, po.rec.GPU, st.idx[g], po.rec.Root, ref.rec.GPU, ref.rec.Root)
			}
		}
		if _, ok := collToKind[ref.rec.Coll]; !ok {
			return fmt.Errorf("ncclgoal: unsupported collective %q", ref.rec.Coll)
		}
		coll := ref.rec
		for i, g := range members {
			po := peek(g)
			po.pos, po.inst, po.coll = int32(i), st.inst, coll
			if err := take(g); err != nil {
				return fmt.Errorf("ncclgoal: comm %q: %w", name, err)
			}
		}
		st.inst++
	}
}

// planner is the plan pass's emitter for one GPU: a collective.Count that
// also notes what the emit pass needs before its first op — the stream
// stride, how many transfers stay in the node — and the first op the
// GPU-level schedule's validation would have rejected.
type planner struct {
	collective.Count
	pl           *plan
	gpu          int32
	stage3       goal.OpID // the GPU's first stage-3 op
	sends, recvs int       // intra-node transfers
	planned      int32     // NCCL records placed in stage-3 order so far
	neg          goal.OpID
	negSize      int64
}

func (pg *planner) note(id goal.OpID, size int64, cpu int32) goal.OpID {
	pg.pl.stride = max(pg.pl.stride, cpu+1)
	if size < 0 && pg.neg < 0 {
		pg.neg, pg.negSize = id, size
	}
	return id
}

// CalcOn counts a calc.
func (pg *planner) CalcOn(nanos int64, cpu int32) goal.OpID {
	return pg.note(pg.Count.CalcOn(nanos, cpu), nanos, cpu)
}

// SendOn counts a send, and an intra-node one apart.
func (pg *planner) SendOn(size int64, dst int, tag, cpu int32) goal.OpID {
	if pg.pl.intra(int(pg.gpu), dst) {
		pg.sends++
	}
	return pg.note(pg.Count.SendOn(size, dst, tag, cpu), size, cpu)
}

// RecvOn counts a receive, and an intra-node one apart with its pair edge.
func (pg *planner) RecvOn(size int64, src int, tag, cpu int32) goal.OpID {
	if pg.pl.intra(int(pg.gpu), src) {
		pg.recvs++
		pg.Edges++
	}
	return pg.note(pg.Count.RecvOn(size, src, tag, cpu), size, cpu)
}

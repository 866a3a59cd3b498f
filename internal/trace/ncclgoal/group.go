package ncclgoal

import (
	"cmp"
	"fmt"
	"slices"

	"atlahs/internal/goal"
)

// xfer is one intra-node send or receive awaiting its partner: the k-th
// receive of a (src GPU, dst GPU, tag) stream pairs with its k-th send.
// id is the send's op on the node rank, or the receive's position among
// the node schedule's intra-node receives in op order.
type xfer struct {
	src, dst, tag int32
	id            int32
}

func (x xfer) compare(y xfer) int {
	return cmp.Or(cmp.Compare(x.src, y.src), cmp.Compare(x.dst, y.dst), cmp.Compare(x.tag, y.tag))
}

// GroupGPUs is stage 4 of the pipeline: it folds a GPU-level schedule
// (one rank per GPU) into a node-level schedule (one rank per node,
// gpusPerNode GPUs each). Every GPU's compute streams move to a private
// stream range of its node; sends and receives between GPUs of the same
// node are replaced by calc vertices costed at the intra-node interconnect
// (paper Fig 5, "replace intra-node sends and receives with calc
// vertices"), with the receive side depending on the send side so
// cross-GPU synchronisation is preserved. Cross-node messages keep their
// semantics, with tags densified per (srcGPU, dstGPU, tag) so distinct GPU
// pairs sharing a node pair can never cross-match.
//
// Every GPU op becomes exactly one node op, GPU after GPU, so op i of GPU
// g is op base[g]+i of its node and every count is known from the GPU
// schedule: the builder is grown once, exactly. Intra-node transfers are
// paired before any edge is emitted, so each node op's copied
// dependencies and then its pair edge arrive in op order and the builder
// writes the tables in place (see goal.Builder).
func GroupGPUs(gpuSched *goal.Schedule, gpusPerNode int, intraNsPerByte float64) (*goal.Schedule, error) {
	if gpusPerNode <= 0 {
		return nil, fmt.Errorf("ncclgoal: non-positive gpusPerNode")
	}
	if intraNsPerByte <= 0 {
		intraNsPerByte = 1.0 / 150.0
	}
	ngpus := gpuSched.NumRanks()
	nnodes := (ngpus + gpusPerNode - 1) / gpusPerNode
	nodeOf := func(g int) int { return g / gpusPerNode }
	intra := func(g int, op *goal.Op) bool { return op.Kind != goal.KindCalc && nodeOf(int(op.Peer)) == nodeOf(g) }

	// count: stream range per GPU within its node, each GPU's first op on
	// its node, each node's edges, and the intra-node transfers
	streamsPerGPU := int32(1)
	base := make([]goal.OpID, ngpus)
	nodeOps, nodeReq, nodeIReq := make([]int, nnodes), make([]int, nnodes), make([]int, nnodes)
	nsends, nrecvs := 0, 0
	for g := range gpuSched.Ranks {
		rp, node := &gpuSched.Ranks[g], nodeOf(g)
		base[g] = goal.OpID(nodeOps[node])
		nodeOps[node] += len(rp.Ops)
		nodeReq[node] += rp.Requires.NumEdges()
		nodeIReq[node] += rp.IRequires.NumEdges()
		for i := range rp.Ops {
			op := &rp.Ops[i]
			streamsPerGPU = max(streamsPerGPU, op.CPU+1)
			if intra(g, op) {
				if op.Kind == goal.KindSend {
					nsends++
				} else {
					nrecvs++
					nodeReq[node]++ // the pair edge
				}
			}
		}
	}
	b := goal.NewBuilder(nnodes)
	for node := range nodeOps {
		b.Rank(node).Grow(nodeOps[node], nodeReq[node], nodeIReq[node])
	}

	type pairKey struct {
		src, dst int
		tag      int32
	}
	denseTags := map[pairKey]int32{}
	tagFor := func(k pairKey) int32 {
		t, ok := denseTags[k]
		if !ok {
			t = int32(len(denseTags))
			denseTags[k] = t
		}
		return t
	}

	// pass 1: create ops
	sends, recvs := make([]xfer, 0, nsends), make([]xfer, 0, nrecvs)
	for g := 0; g < ngpus; g++ {
		node := nodeOf(g)
		local := int32(g % gpusPerNode)
		rb := b.Rank(node)
		rp := &gpuSched.Ranks[g]
		for i := range rp.Ops {
			op := &rp.Ops[i]
			cpu := local*streamsPerGPU + op.CPU
			h := int(op.Peer)
			switch {
			case op.Kind == goal.KindCalc:
				rb.CalcOn(op.Size, cpu)
			case op.Kind == goal.KindSend && intra(g, op):
				id := rb.CalcOn(int64(float64(op.Size)*intraNsPerByte), cpu)
				sends = append(sends, xfer{int32(g), op.Peer, op.Tag, int32(id)})
			case op.Kind == goal.KindSend:
				rb.SendOn(op.Size, nodeOf(h), tagFor(pairKey{g, h, op.Tag}), cpu)
			case intra(g, op):
				rb.CalcOn(0, cpu)
				recvs = append(recvs, xfer{op.Peer, int32(g), op.Tag, int32(len(recvs))})
			default:
				tag := op.Tag
				if tag != goal.AnyTag {
					tag = tagFor(pairKey{h, g, op.Tag})
				}
				rb.RecvOn(op.Size, nodeOf(h), tag, cpu)
			}
		}
	}

	// pair intra-node transfers: sorted stably by stream, the k-th receive
	// of the whole list meets the k-th send when every stream has as many
	// of one as of the other
	slices.SortStableFunc(sends, xfer.compare)
	slices.SortStableFunc(recvs, xfer.compare)
	sendOf := make([]goal.OpID, len(recvs)) // by the receive's position in op order
	for k := 0; k < max(len(sends), len(recvs)); k++ {
		if k < len(sends) && k < len(recvs) && sends[k].compare(recvs[k]) == 0 {
			sendOf[recvs[k].id] = goal.OpID(sends[k].id)
			continue
		}
		// the lists part at the first stream with more of one than of the other
		var odd xfer
		if k >= len(recvs) || (k < len(sends) && sends[k].compare(recvs[k]) < 0) {
			odd = sends[k]
		} else {
			odd = recvs[k]
		}
		return nil, fmt.Errorf("ncclgoal: intra-node pair %d->%d tag %d has different numbers of sends and recvs", odd.src, odd.dst, odd.tag)
	}

	// pass 2: copy dependencies (always GPU-local, hence node-local), each
	// intra-node receive's pair edge after its own
	nextRecv := 0
	for g := 0; g < ngpus; g++ {
		rb := b.Rank(nodeOf(g))
		rp := &gpuSched.Ranks[g]
		for i := range rp.Ops {
			id := base[g] + goal.OpID(i)
			for _, d := range rp.Requires.Of(i) {
				rb.Requires(id, base[g]+goal.OpID(d))
			}
			for _, d := range rp.IRequires.Of(i) {
				rb.IRequires(id, base[g]+goal.OpID(d))
			}
			if op := &rp.Ops[i]; op.Kind == goal.KindRecv && intra(g, op) {
				rb.Requires(id, sendOf[nextRecv])
				nextRecv++
			}
		}
	}

	sch := b.Build()
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	return sch, nil
}

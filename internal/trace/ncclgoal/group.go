package ncclgoal

import (
	"fmt"

	"atlahs/internal/goal"
)

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

	// stream range per GPU within its node
	streamsPerGPU := int32(1)
	for g := range gpuSched.Ranks {
		for i := range gpuSched.Ranks[g].Ops {
			if c := gpuSched.Ranks[g].Ops[i].CPU + 1; c > streamsPerGPU {
				streamsPerGPU = c
			}
		}
	}

	b := goal.NewBuilder(nnodes)
	opMap := make([][]goal.OpID, ngpus)

	type pairKey struct {
		src, dst int
		tag      int32
	}
	denseTags := map[pairKey]int32{}
	nextTag := int32(0)
	tagFor := func(k pairKey) int32 {
		if t, ok := denseTags[k]; ok {
			return t
		}
		denseTags[k] = nextTag
		nextTag++
		return denseTags[k]
	}
	intraSends := map[pairKey][]goal.OpID{}
	intraRecvs := map[pairKey][]goal.OpID{}
	intraRecvNode := map[pairKey]int{}

	// pass 1: create ops
	for g := 0; g < ngpus; g++ {
		node := nodeOf(g)
		local := int32(g % gpusPerNode)
		rb := b.Rank(node)
		rp := &gpuSched.Ranks[g]
		opMap[g] = make([]goal.OpID, len(rp.Ops))
		for i := range rp.Ops {
			op := &rp.Ops[i]
			cpu := local*streamsPerGPU + op.CPU
			switch op.Kind {
			case goal.KindCalc:
				opMap[g][i] = rb.CalcOn(op.Size, cpu)
			case goal.KindSend:
				h := int(op.Peer)
				key := pairKey{g, h, op.Tag}
				if nodeOf(h) == node {
					id := rb.CalcOn(int64(float64(op.Size)*intraNsPerByte), cpu)
					opMap[g][i] = id
					intraSends[key] = append(intraSends[key], id)
				} else {
					opMap[g][i] = rb.SendOn(op.Size, nodeOf(h), tagFor(key), cpu)
				}
			case goal.KindRecv:
				h := int(op.Peer)
				key := pairKey{h, g, op.Tag}
				if nodeOf(h) == node {
					id := rb.CalcOn(0, cpu)
					opMap[g][i] = id
					intraRecvs[key] = append(intraRecvs[key], id)
					intraRecvNode[key] = node
				} else {
					tag := op.Tag
					if tag != goal.AnyTag {
						tag = tagFor(key)
					}
					opMap[g][i] = rb.RecvOn(op.Size, nodeOf(h), tag, cpu)
				}
			}
		}
	}

	// pass 2: copy dependencies (always GPU-local, hence node-local)
	for g := 0; g < ngpus; g++ {
		node := nodeOf(g)
		rb := b.Rank(node)
		rp := &gpuSched.Ranks[g]
		for i := range rp.Ops {
			for _, d := range rp.Requires.Of(i) {
				rb.Requires(opMap[g][i], opMap[g][d])
			}
			for _, d := range rp.IRequires.Of(i) {
				rb.IRequires(opMap[g][i], opMap[g][d])
			}
		}
	}

	// pass 3: pair intra-node transfers — the k-th receive depends on the
	// k-th send of its (srcGPU, dstGPU, tag) stream
	for key, recvs := range intraRecvs {
		sends := intraSends[key]
		if len(sends) != len(recvs) {
			return nil, fmt.Errorf("ncclgoal: intra-node pair %d->%d tag %d has %d sends but %d recvs",
				key.src, key.dst, key.tag, len(sends), len(recvs))
		}
		rb := b.Rank(intraRecvNode[key])
		for k := range recvs {
			rb.Requires(recvs[k], sends[k])
		}
	}
	for key, sends := range intraSends {
		if len(intraRecvs[key]) != len(sends) {
			return nil, fmt.Errorf("ncclgoal: intra-node pair %d->%d tag %d has %d sends but %d recvs",
				key.src, key.dst, key.tag, len(sends), len(intraRecvs[key]))
		}
	}

	sch := b.Build()
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	return sch, nil
}

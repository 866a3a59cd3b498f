package ncclgoal

import (
	"cmp"
	"fmt"
	"slices"

	"atlahs/internal/collective"
	"atlahs/internal/goal"
)

// xfer is one intra-node send or receive awaiting its partner: the k-th
// receive of a (src GPU, dst GPU, tag) stream pairs with its k-th send.
// id is the send's node op, or the receive's position among the node
// schedule's intra-node receives in emit order.
type xfer struct {
	src, dst, tag int32
	id            int32
}

func (x xfer) stream(y xfer) int {
	return cmp.Or(cmp.Compare(x.src, y.src), cmp.Compare(x.dst, y.dst), cmp.Compare(x.tag, y.tag))
}

// collector walks a GPU's stage 3 once more between the passes, to note
// its intra-node transfers in arrays the planners sized.
type collector struct {
	collective.Count
	pl           *plan
	gpu          int
	sends, recvs []xfer
}

func (c *collector) SendOn(size int64, dst int, tag, cpu int32) goal.OpID {
	id := c.Count.SendOn(size, dst, tag, cpu)
	if c.pl.intra(c.gpu, dst) {
		c.sends = append(c.sends, xfer{int32(c.gpu), int32(dst), tag, int32(c.pl.base[c.gpu] + id)})
	}
	return id
}

func (c *collector) RecvOn(size int64, src int, tag, cpu int32) goal.OpID {
	if c.pl.intra(c.gpu, src) {
		c.recvs = append(c.recvs, xfer{int32(src), int32(c.gpu), tag, int32(len(c.recvs))})
	}
	return c.Count.RecvOn(size, src, tag, cpu)
}

// pair ends the plan pass: it places every GPU's ops on its node and pairs
// the intra-node transfers, so that the emit pass can give each intra-node
// receive its pair edge as it goes.
func (p *plan) pair() error {
	p.base = resize(p.base, len(p.gpus))
	var nodeOps goal.OpID
	nsends, nrecvs := 0, 0
	for g := range p.gpus {
		if g%p.cfg.GPUsPerNode == 0 {
			nodeOps = 0
		}
		p.base[g] = nodeOps
		nodeOps += goal.OpID(p.gpus[g].Ops)
		nsends += p.gpus[g].sends
		nrecvs += p.gpus[g].recvs
	}
	c := &collector{pl: p, sends: resize(p.sends, nsends)[:0], recvs: resize(p.recvs, nrecvs)[:0]}
	for g := range p.gpus {
		c.gpu, c.Count = g, collective.Count{Ops: int(p.gpus[g].stage3)}
		for _, k := range p.order[p.lo[g]:p.lo[g+1]] {
			_, _ = p.communicate(c, &p.pending[k]) // as the plan pass did
		}
	}
	// Sorted by stream, the k-th receive of the whole list meets the k-th
	// send when every stream has as many of one as of the other. Within a
	// stream, sends (all on one GPU) and receives (likewise) stay in op
	// order: the id breaks ties.
	sends, recvs := c.sends, c.recvs
	p.sends, p.recvs = sends, recvs
	byStream := func(x, y xfer) int { return cmp.Or(x.stream(y), cmp.Compare(x.id, y.id)) }
	slices.SortFunc(sends, byStream)
	slices.SortFunc(recvs, byStream)
	p.sendOf = resize(p.sendOf, len(recvs))
	for k := 0; k < max(len(sends), len(recvs)); k++ {
		if k < len(sends) && k < len(recvs) && sends[k].stream(recvs[k]) == 0 {
			p.sendOf[recvs[k].id] = goal.OpID(sends[k].id)
			continue
		}
		// the lists part at the first stream with more of one than of the other
		var odd xfer
		if k >= len(recvs) || (k < len(sends) && sends[k].stream(recvs[k]) < 0) {
			odd = sends[k]
		} else {
			odd = recvs[k]
		}
		return fmt.Errorf("ncclgoal: intra-node pair %d->%d tag %d has different numbers of sends and recvs", odd.src, odd.dst, odd.tag)
	}
	return nil
}

// emit runs the emit pass: stages 2-3 once more, GPU by GPU, onto the
// node schedule.
func (p *plan) emit() (*goal.Schedule, error) {
	gpn := p.cfg.GPUsPerNode
	b := goal.NewBuilder((len(p.gpus) + gpn - 1) / gpn)
	for g := 0; g < len(p.gpus); g += gpn {
		var ops, edges int
		for _, pg := range p.gpus[g:min(g+gpn, len(p.gpus))] {
			ops += pg.Ops
			edges += pg.Edges
		}
		b.Rank(p.nodeOf(g)).Grow(ops, edges, 0)
	}
	if p.tags == nil {
		p.tags = map[pairKey]int32{}
	}
	clear(p.tags)
	e := &nodeEmitter{pl: p, pair: -1, tags: p.tags}
	for g := range p.gpus {
		e.rb, e.gpu, e.base, e.cpu = b.Rank(p.nodeOf(g)), g, p.base[g], int32(g%gpn)*p.stride
		p.chains(e, g)
		for _, k := range p.order[p.lo[g]:p.lo[g+1]] {
			// the plan pass emitted the same record without error
			_, _ = p.communicate(e, &p.pending[k])
		}
		e.flush()
	}
	sch := b.Build()
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	return sch, nil
}

// pairKey names a cross-node message stream by GPU: tags are densified
// per key so that distinct GPU pairs sharing a node pair never
// cross-match.
type pairKey struct {
	src, dst int
	tag      int32
}

// nodeEmitter is the emit pass's emitter. It writes one GPU's ops onto its
// node's rank with the stage-4 rewrite applied and hands back the GPU's
// own op ids, so stages 2-3 run unchanged on either pass.
type nodeEmitter struct {
	pl   *plan
	rb   *goal.RankBuilder
	gpu  int
	base goal.OpID // the node op of the GPU's op 0
	cpu  int32     // the GPU's first compute stream on the node
	// pair is the last op emitted if it is an intra-node receive, which
	// gets the edge to its send (pairDep) once its own dependencies are in:
	// when the next op is added, or the GPU ends
	pair, pairDep goal.OpID
	recvs         int // intra-node receives emitted so far
	tags          map[pairKey]int32
}

func (e *nodeEmitter) flush() {
	if e.pair >= 0 {
		e.rb.Require(e.pair, e.pairDep)
		e.pair = -1
	}
}

// tag returns the dense tag of a cross-node stream, numbering streams in
// order of first use.
func (e *nodeEmitter) tag(k pairKey) int32 {
	t, ok := e.tags[k]
	if !ok {
		t = int32(len(e.tags))
		e.tags[k] = t
	}
	return t
}

// CalcOn emits a calc on the GPU's range of the node's streams.
func (e *nodeEmitter) CalcOn(nanos int64, cpu int32) goal.OpID {
	e.flush()
	return e.rb.CalcOn(nanos, e.cpu+cpu) - e.base
}

// SendOn emits a cross-node send, or a calc costed at the intra-node
// interconnect for one that stays in the node.
func (e *nodeEmitter) SendOn(size int64, dst int, tag, cpu int32) goal.OpID {
	e.flush()
	if e.pl.intra(e.gpu, dst) {
		return e.rb.CalcOn(int64(float64(size)*e.pl.cfg.IntraNsPerByte), e.cpu+cpu) - e.base
	}
	return e.rb.SendOn(size, e.pl.nodeOf(dst), e.tag(pairKey{e.gpu, dst, tag}), e.cpu+cpu) - e.base
}

// RecvOn emits a cross-node receive, or for one that stays in the node a
// zero calc that will require the send's calc, so cross-GPU
// synchronisation is preserved.
func (e *nodeEmitter) RecvOn(size int64, src int, tag, cpu int32) goal.OpID {
	e.flush()
	if e.pl.intra(e.gpu, src) {
		e.pair, e.pairDep = e.rb.CalcOn(0, e.cpu+cpu), e.pl.sendOf[e.recvs]
		e.recvs++
		return e.pair - e.base
	}
	if tag != goal.AnyTag {
		tag = e.tag(pairKey{src, e.gpu, tag})
	}
	return e.rb.RecvOn(size, e.pl.nodeOf(src), tag, e.cpu+cpu) - e.base
}

// Require copies a dependency, always GPU-local and hence node-local.
func (e *nodeEmitter) Require(op, dep goal.OpID) { e.rb.Require(e.base+op, e.base+dep) }

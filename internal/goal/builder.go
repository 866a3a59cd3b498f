package goal

import "fmt"

// OpID identifies an op within one rank's program during construction.
type OpID int32

// Builder incrementally constructs a Schedule. It is the API used by every
// trace converter (Schedgen, the NCCL 4-stage pipeline, Direct Drive) and
// workload generator. Builders are not safe for concurrent use.
type Builder struct {
	ranks   []RankBuilder
	comment string
}

// depEdge is one logged dependency: op depends on dep.
type depEdge struct{ op, dep int32 }

// NewBuilder creates a builder for a schedule with nranks ranks.
func NewBuilder(nranks int) *Builder {
	if nranks <= 0 {
		panic("goal: NewBuilder with non-positive rank count")
	}
	b := &Builder{ranks: make([]RankBuilder, nranks)}
	for r := range b.ranks {
		b.ranks[r].r = r
	}
	return b
}

// SetComment attaches a free-form comment stored with the schedule.
func (b *Builder) SetComment(c string) { b.comment = c }

// NumRanks returns the schedule's rank count.
func (b *Builder) NumRanks() int { return len(b.ranks) }

// Rank returns the per-rank builder handle for rank r. Handles live in the
// builder, so converters that ask for one per emitted op allocate nothing.
func (b *Builder) Rank(r int) *RankBuilder {
	if r < 0 || r >= len(b.ranks) {
		panic(fmt.Sprintf("goal: rank %d out of range [0,%d)", r, len(b.ranks)))
	}
	return &b.ranks[r]
}

// RankBuilder adds ops and dependencies to one rank. Ops go to one slice
// and dependencies to one (op, dep) log per kind, in call order; Build
// sorts the logs into tables. An op costs its 24 bytes and an edge 8 while
// building, with nothing per op for dependencies it does not have.
type RankBuilder struct {
	r         int
	ops       []Op
	requires  []depEdge
	irequires []depEdge
}

// Rank returns the rank index this builder appends to.
func (rb *RankBuilder) Rank() int { return rb.r }

// NumOps returns the number of ops added to this rank so far.
func (rb *RankBuilder) NumOps() int { return len(rb.ops) }

func (rb *RankBuilder) add(op Op) OpID {
	rb.ops = append(rb.ops, op)
	return OpID(len(rb.ops) - 1)
}

// Calc appends a computation of the given nanoseconds on stream 0.
func (rb *RankBuilder) Calc(nanos int64) OpID {
	return rb.add(Op{Kind: KindCalc, Peer: -1, Size: nanos})
}

// CalcOn appends a computation on the given compute stream.
func (rb *RankBuilder) CalcOn(nanos int64, cpu int32) OpID {
	return rb.add(Op{Kind: KindCalc, Peer: -1, Size: nanos, CPU: cpu})
}

// Send appends a send of size bytes to rank dst with the given tag.
func (rb *RankBuilder) Send(size int64, dst int, tag int32) OpID {
	return rb.add(Op{Kind: KindSend, Peer: int32(dst), Tag: tag, Size: size})
}

// SendOn appends a send issued from the given compute stream.
func (rb *RankBuilder) SendOn(size int64, dst int, tag int32, cpu int32) OpID {
	return rb.add(Op{Kind: KindSend, Peer: int32(dst), Tag: tag, Size: size, CPU: cpu})
}

// Recv appends a receive of size bytes from rank src with the given tag.
func (rb *RankBuilder) Recv(size int64, src int, tag int32) OpID {
	return rb.add(Op{Kind: KindRecv, Peer: int32(src), Tag: tag, Size: size})
}

// RecvOn appends a receive posted on the given compute stream.
func (rb *RankBuilder) RecvOn(size int64, src int, tag int32, cpu int32) OpID {
	return rb.add(Op{Kind: KindRecv, Peer: int32(src), Tag: tag, Size: size, CPU: cpu})
}

// Requires adds completion dependencies: op starts only after each dep has
// completed.
func (rb *RankBuilder) Requires(op OpID, deps ...OpID) {
	rb.requires = rb.log(rb.requires, op, deps)
}

// IRequires adds start dependencies: op starts only after each dep has
// started.
func (rb *RankBuilder) IRequires(op OpID, deps ...OpID) {
	rb.irequires = rb.log(rb.irequires, op, deps)
}

func (rb *RankBuilder) log(edges []depEdge, op OpID, deps []OpID) []depEdge {
	if op < 0 || int(op) >= len(rb.ops) {
		panic(fmt.Sprintf("goal: rank %d: dependency on op %d, which has not been added (%d ops)", rb.r, op, len(rb.ops)))
	}
	for _, d := range deps {
		edges = append(edges, depEdge{int32(op), int32(d)})
	}
	return edges
}

// Chain links ops into a sequential requires chain (each op requires its
// predecessor) and returns the last op, or -1 for an empty argument list.
func (rb *RankBuilder) Chain(ops ...OpID) OpID {
	if len(ops) == 0 {
		return -1
	}
	for i := 1; i < len(ops); i++ {
		rb.Requires(ops[i], ops[i-1])
	}
	return ops[len(ops)-1]
}

// Build assembles the final Schedule. The builder remains usable: the
// schedule shares no memory with it.
func (b *Builder) Build() *Schedule {
	s := &Schedule{Comment: b.comment, Ranks: make([]RankProgram, len(b.ranks))}
	for r := range b.ranks {
		rb := &b.ranks[r]
		rp := &s.Ranks[r]
		rp.Ops = append([]Op(nil), rb.ops...)
		rp.Requires = tableOf(len(rb.ops), rb.requires)
		rp.IRequires = tableOf(len(rb.ops), rb.irequires)
	}
	return s
}

// tableOf counting-sorts an edge log by op into a table of n lists (the
// shifted-count fill is explained in Invert). The sort is stable, so each
// op's list holds its dependencies in the order they were added — the
// order the binary encoding, and with it every schedule fingerprint,
// depends on.
func tableOf(n int, log []depEdge) Deps {
	d := newDeps(n, len(log))
	off := d.off[:n+2]
	for _, e := range log {
		off[e.op+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	for _, e := range log {
		d.edges[off[e.op+1]] = e.dep
		off[e.op+1]++
	}
	return d
}

// MustBuild assembles the Schedule and panics if validation fails. Intended
// for generators whose output is by construction valid.
func (b *Builder) MustBuild() *Schedule {
	s := b.Build()
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

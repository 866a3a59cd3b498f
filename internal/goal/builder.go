package goal

import "fmt"

// OpID identifies an op within one rank's program during construction.
type OpID int32

// Builder incrementally constructs a Schedule. It is the API used by every
// trace converter (Schedgen, the NCCL 4-stage pipeline, Direct Drive) and
// workload generator. Builders are not safe for concurrent use.
//
// The contract, in four parts:
//
//   - Counted or grown. A producer that knows how many ops and edges a rank
//     gets says so with RankBuilder.Grow, and that rank's arrays are
//     allocated once, at exactly that size. A producer that does not know
//     just adds: the same arrays grow the way append grows them. A count
//     that turns out too small is not an error, only a regrowth.
//   - In order or spilled. Each of a rank's two dependency tables is
//     written directly in its final CSR form (Deps: 4 B per op, 4 B per
//     edge) for as long as successive Requires / IRequires calls name
//     non-decreasing ops — which is what a producer does that wires each
//     op up right after adding it. The first call that names an op older
//     than the last one named spills that table of that rank to an
//     (op, dep) log (8 B per edge) that Build counting-sorts into CSR.
//     Both paths give an op its dependencies in the order they were added,
//     so they produce identical schedules; which one runs is decided by
//     the order the producer's calls arrive in, per rank and per table.
//   - One Build. Build hands the op arrays and the in-order tables to the
//     Schedule instead of copying them, so it may be called once, last:
//     the builder and its RankBuilder handles are spent afterwards and any
//     further use panics.
//   - What is handed over: every rank's Ops, and the offset and edge
//     arrays of every table that stayed in order, with whatever spare
//     capacity growth left (none after an exact Grow). Spilled tables are
//     freshly allocated at their exact size. A table without edges has
//     neither array — its offsets are nil exactly when its edges are
//     (see newDeps) — so it costs nothing per op.
type Builder struct {
	ranks   []RankBuilder
	comment string
}

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
		if b.ranks == nil {
			panic(spentMsg)
		}
		panic(fmt.Sprintf("goal: rank %d out of range [0,%d)", r, len(b.ranks)))
	}
	return &b.ranks[r]
}

const spentMsg = "goal: Builder used after Build"

// RankBuilder adds ops and dependencies to one rank: ops to one array,
// dependencies to one depTable per kind. An op costs its 16 bytes and an
// edge 4 (8 once its table has spilled) while building, plus 4 bytes per
// op for each table that has any edges. An op with a value the packed
// form cannot hold (see Op) is added in its reserved form, which Validate
// refuses, naming the field.
type RankBuilder struct {
	r         int
	spent     bool
	ops       []Op
	requires  depTable
	irequires depTable
}

// depTable is one dependency table under construction (see Builder for
// the two states).
type depTable struct {
	// In order: off[i] is where op i's list starts in edges, for every op
	// up to the last one a call has named (op len(off)-1, whose list runs
	// to the end of edges). Build pads off to the op count and these two
	// arrays are the table.
	off   []int32
	edges []int32
	// Spilled (log is non-nil): every edge in call order, the in-order
	// ones first.
	log []depEdge
}

func (t *depTable) spilled() bool { return t.log != nil }

// depEdge is one logged dependency: op depends on dep.
type depEdge struct{ op, dep int32 }

// Rank returns the rank index this builder appends to.
func (rb *RankBuilder) Rank() int { return rb.r }

// NumOps returns the number of ops added to this rank so far.
func (rb *RankBuilder) NumOps() int { return len(rb.ops) }

// Grow reserves room for exactly ops more ops and requires / irequires
// more dependency edges on this rank. Callers count first and Grow once;
// adding more than was reserved grows the arrays as if Grow had not been
// called.
func (rb *RankBuilder) Grow(ops, requires, irequires int) {
	if rb.spent {
		panic(spentMsg)
	}
	if ops < 0 || requires < 0 || irequires < 0 {
		panic("goal: Grow with a negative count")
	}
	rb.ops = reserve(rb.ops, ops)
	rb.requires.grow(len(rb.ops)+ops, requires)
	rb.irequires.grow(len(rb.ops)+ops, irequires)
}

// reserve returns s with room for exactly n more elements when it has
// less (slices.Grow would round the capacity up).
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// grow reserves for a rank that will have nops ops and edges more edges
// in this table. A table that is to stay empty reserves nothing, and
// Build gives it no arrays.
func (t *depTable) grow(nops, edges int) {
	switch {
	case edges == 0:
	case t.spilled():
		t.log = reserve(t.log, edges)
	default:
		t.off = reserve(t.off, nops+1-len(t.off))
		t.edges = reserve(t.edges, edges)
	}
}

func (rb *RankBuilder) add(op Op) OpID {
	if rb.spent {
		panic(spentMsg)
	}
	rb.ops = append(rb.ops, op)
	return OpID(len(rb.ops) - 1)
}

// Calc appends a computation of the given nanoseconds on stream 0.
func (rb *RankBuilder) Calc(nanos int64) OpID {
	return rb.add(makeOp(KindCalc, nanos, -1, 0, 0))
}

// CalcOn appends a computation on the given compute stream.
func (rb *RankBuilder) CalcOn(nanos int64, cpu int32) OpID {
	return rb.add(makeOp(KindCalc, nanos, -1, 0, cpu))
}

// Send appends a send of size bytes to rank dst with the given tag.
func (rb *RankBuilder) Send(size int64, dst int, tag int32) OpID {
	return rb.add(makeOp(KindSend, size, int32(dst), tag, 0))
}

// SendOn appends a send issued from the given compute stream.
func (rb *RankBuilder) SendOn(size int64, dst int, tag int32, cpu int32) OpID {
	return rb.add(makeOp(KindSend, size, int32(dst), tag, cpu))
}

// Recv appends a receive of size bytes from rank src with the given tag.
func (rb *RankBuilder) Recv(size int64, src int, tag int32) OpID {
	return rb.add(makeOp(KindRecv, size, int32(src), tag, 0))
}

// RecvOn appends a receive posted on the given compute stream.
func (rb *RankBuilder) RecvOn(size int64, src int, tag int32, cpu int32) OpID {
	return rb.add(makeOp(KindRecv, size, int32(src), tag, cpu))
}

// Requires adds completion dependencies: op starts only after each dep has
// completed.
func (rb *RankBuilder) Requires(op OpID, deps ...OpID) {
	rb.depend(&rb.requires, op, deps)
}

// Require is Requires with one dependency: the form a caller reaching the
// builder through an interface uses, where the variadic argument slice of
// Requires would be allocated on every call.
func (rb *RankBuilder) Require(op, dep OpID) {
	rb.depend(&rb.requires, op, []OpID{dep})
}

// IRequires adds start dependencies: op starts only after each dep has
// started.
func (rb *RankBuilder) IRequires(op OpID, deps ...OpID) {
	rb.depend(&rb.irequires, op, deps)
}

func (rb *RankBuilder) depend(t *depTable, op OpID, deps []OpID) {
	if rb.spent {
		panic(spentMsg)
	}
	if op < 0 || int(op) >= len(rb.ops) {
		panic(fmt.Sprintf("goal: rank %d: dependency on op %d, which has not been added (%d ops)", rb.r, op, len(rb.ops)))
	}
	if len(deps) == 0 {
		return
	}
	if !t.spilled() && int(op) < len(t.off)-1 {
		t.spill()
	}
	if t.spilled() {
		for _, d := range deps {
			t.log = append(t.log, depEdge{int32(op), int32(d)})
		}
		return
	}
	for len(t.off) <= int(op) {
		t.off = append(t.off, int32(len(t.edges)))
	}
	for _, d := range deps {
		t.edges = append(t.edges, int32(d))
	}
}

// spill rewrites the in-order arrays as the head of the log, which takes
// over whatever edge capacity Grow reserved.
func (t *depTable) spill() {
	t.log = make([]depEdge, 0, max(cap(t.edges), 2*len(t.edges)))
	for i := range t.off {
		hi := len(t.edges)
		if i+1 < len(t.off) {
			hi = int(t.off[i+1])
		}
		for _, d := range t.edges[t.off[i]:hi] {
			t.log = append(t.log, depEdge{int32(i), d})
		}
	}
	t.off, t.edges = nil, nil
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

// Build assembles the final Schedule and leaves the builder spent: the
// schedule owns the arrays the builder filled (see Builder).
func (b *Builder) Build() *Schedule {
	if b.ranks == nil {
		panic(spentMsg)
	}
	s := &Schedule{Comment: b.comment, Ranks: make([]RankProgram, len(b.ranks))}
	for r := range b.ranks {
		rb := &b.ranks[r]
		n := len(rb.ops)
		if n == 0 {
			rb.ops = nil // as the tables' edges: nil when empty, Grow or not
		}
		s.Ranks[r] = RankProgram{Ops: rb.ops, Requires: rb.requires.build(n), IRequires: rb.irequires.build(n)}
		*rb = RankBuilder{r: r, spent: true}
	}
	b.ranks = nil
	return s
}

// build finishes the table for a rank of n ops, keeping what newDeps
// promises: a table without edges is its list count alone, and otherwise
// off has n+1 entries.
func (t *depTable) build(n int) Deps {
	switch {
	case t.spilled():
		return tableOf(n, t.log)
	case len(t.edges) == 0:
		return Deps{n: n}
	}
	d := Deps{n: n, off: reserve(t.off, n+1-len(t.off)), edges: t.edges}
	for len(d.off) <= n {
		d.off = append(d.off, int32(len(t.edges)))
	}
	return d
}

// tableOf counting-sorts an edge log by op into a table of n lists (the
// shifted-count fill is explained in Invert). The sort is stable, so each
// op's list holds its dependencies in the order they were added — the
// order the binary encoding, and with it every schedule fingerprint,
// depends on.
func tableOf(n int, log []depEdge) Deps {
	d := newDeps(n, len(log)) // a table spills on an edge, so the log has one
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

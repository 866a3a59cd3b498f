package goal

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"atlahs/internal/registry"
)

// OpID identifies an op within one rank's program during construction.
type OpID int32

// Builder incrementally constructs a Schedule. It is the API used by every
// trace converter (Schedgen, the NCCL 4-stage pipeline, Direct Drive,
// Chakra) and workload generator. Builders are not safe for concurrent use.
//
// The contract, in four parts:
//
//   - Counted or grown. A producer that knows how many ops and edges a rank
//     gets says so with RankBuilder.Grow, which takes that rank's scratch
//     with room for them. A producer that does not know just adds: the
//     scratch grows the way append grows it. A count that turns out too
//     small is not an error, only a regrowth. Either way the scratch is
//     kept from one build to the next, up to opKeep bytes of op scratch
//     in all, so a process that builds schedule after schedule regrows
//     it only while it is smaller than any rank it built before, or
//     where its ranks' ops need more than opKeep.
//   - In order. Each of a rank's two dependency tables is encoded directly
//     in its final form (Deps: the binary encoding's own, a byte or two
//     per list and per edge) into scratch the package keeps, so successive
//     Requires / IRequires calls on one table name non-decreasing ops: a
//     producer wires each op after adding it, and may add to the list of
//     the last op it named as often as it likes. An op's dependencies are
//     listed in the order they were added. A call that names an op older
//     than the last one named on that table panics, as a spent builder
//     does. A producer that cannot order its calls sorts them by op first
//     (the text parser, whose lines come in any order); one that learns
//     an edge only later counts first (the Chakra converter).
//   - One Build. Build may be called once, last: the builder and its
//     RankBuilder handles are spent afterwards and any further use panics.
//     Every builder has handles of its own, never reused, so a spent
//     handle cannot reach a later builder's ranks.
//   - What is handed over: every rank's one array of short words, index
//     and side words (see RankProgram) and each table's bytes, made from
//     scratch at their exact length, which is the one allocation each
//     costs. A table without edges has no bytes, so it costs nothing per
//     op.
//
// So a cold build with warm scratch costs, per rank, a 32-byte
// RankBuilder, the rank's array and the bytes of each table with edges,
// and the schedule's 80-byte RankProgram.
type Builder struct {
	ranks   []RankBuilder
	comment string
}

// NewBuilder creates a builder for a schedule with nranks ranks.
func NewBuilder(nranks int) *Builder {
	if nranks <= 0 || nranks > math.MaxInt32 {
		panic("goal: NewBuilder with a rank count outside [1, 2^31)")
	}
	b := &Builder{ranks: make([]RankBuilder, nranks)}
	for r := range b.ranks {
		b.ranks[r].r = int32(r)
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

// RankBuilder adds ops and dependencies to one rank: each op's short word
// and side words (see RankProgram) to kept scratch, and dependencies to
// one depTable per kind. An op costs 4 bytes while building, or 12 with
// one side word and 20 with two, and an edge a byte or two, plus a byte
// per op for each table that has any edges. An op with a value the packed
// form cannot hold (see Op) is added in its reserved form, which Validate
// refuses, naming the field.
//
// A RankBuilder is a 32-byte handle: its rank, whether it is spent, and
// pointers to the scratch its ops and its two tables are gathered in,
// taken from the stocks at Grow or at the first op or edge. So a cold
// build costs NewBuilder 32 bytes per rank, whatever the rank holds.
type RankBuilder struct {
	r         int32
	spent     bool
	ops       *rankOps
	requires  *depTable
	irequires *depTable
}

// rankOps is the scratch one rank's ops are gathered in, in op order.
type rankOps struct {
	shorts []uint32
	side   []uint64
}

// depTable is one dependency table under construction: enc holds the
// lists of ops 0 to lists-2, encoded, and the open list of op lists-1,
// which starts at open with one byte kept for its count (count edges so
// far); close writes the count there.
type depTable struct {
	enc   []byte
	lists int32
	open  int32
	count int32
	edges int32
}

// encScratch keeps the buffers that tables are encoded into while they
// are built, and opScratch those that ops are gathered in (by the
// builder, and by ParseBinary), so that a process building schedule after
// schedule allocates for each table and each rank's ops only the copy
// Build hands over. opKept counts the bytes opScratch holds; it never
// reads less than that.
var (
	encScratch registry.Stock[depTable]
	opScratch  registry.Stock[rankOps]
	opKept     atomic.Int64
)

// opKeep bounds the bytes of op scratch opScratch keeps: about 1.4 M ops
// at 12 bytes each. Without it a process would keep, for good, a rank's
// scratch for every rank it ever built at once, as large as the largest
// it served (about 12 bytes per op of the largest schedule built, some
// 800 MB for a synthetic spec at its op bound).
const opKeep = 16 << 20

// takeOps takes op scratch from opScratch, empty.
func takeOps() *rankOps {
	o := opScratch.Take()
	opKept.Add(-o.bytes())
	o.shorts, o.side = o.shorts[:0], o.side[:0]
	return o
}

// putOps gives op scratch back to opScratch, unless it would hold more
// than opKeep bytes: then the scratch is dropped.
func putOps(o *rankOps) {
	if n := o.bytes(); opKept.Add(n) > opKeep {
		opKept.Add(-n)
		return
	}
	opScratch.Put(o)
}

// bytes returns the bytes the scratch holds.
func (o *rankOps) bytes() int64 { return int64(cap(o.shorts))*4 + int64(cap(o.side))*8 }

// Rank returns the rank index this builder appends to.
func (rb *RankBuilder) Rank() int { return int(rb.r) }

// Grow reserves room for exactly ops more ops and requires / irequires
// more dependency edges on this rank, in kept scratch, with a side word
// per op. Callers count first and Grow once; adding more than was
// reserved grows the scratch as if Grow had not been called.
func (rb *RankBuilder) Grow(ops, requires, irequires int) {
	if rb.spent {
		panic(spentMsg)
	}
	if ops < 0 || requires < 0 || irequires < 0 {
		panic("goal: Grow with a negative count")
	}
	if ops > 0 {
		o := rb.takeOps()
		o.shorts = reserve(o.shorts, ops)
		o.side = reserve(o.side, ops)
	}
	n := rb.nops()
	if requires > 0 {
		rb.requires = grow(rb.requires, n+ops, requires)
	}
	if irequires > 0 {
		rb.irequires = grow(rb.irequires, n+ops, irequires)
	}
}

// reserve returns s with room for exactly n more elements when it has
// less (slices.Grow would round the capacity up).
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// grow reserves in t, taken if nil, for a rank that will have nops ops
// and edges (at least one) more edges in the table: a byte per list not
// yet begun and two per edge, enough unless edges reach more than 8 191
// ops away. A table that is to stay empty is never taken, and Build gives
// it no bytes.
func grow(t *depTable, nops, edges int) *depTable {
	if t == nil {
		t = takeTable()
	}
	t.enc = reserve(t.enc, max(nops-int(t.lists), 0)+2*edges)
	return t
}

// takeTable takes a table's scratch from encScratch, empty.
func takeTable() *depTable {
	t := encScratch.Take()
	*t = depTable{enc: t.enc[:0]}
	return t
}

func (rb *RankBuilder) add(op Op) OpID {
	o := rb.ops
	if o == nil {
		o = rb.takeOps()
	}
	o.add(op)
	return OpID(len(o.shorts) - 1)
}

// takeOps returns the rank's op scratch, taking it from opScratch if it
// has none yet, and panics if the builder is spent. Grow takes it, with
// room for the ops it reserves, so that a counted producer adds ops
// without allocating, takes the scratch in rank order whatever order its
// ranks' ops come in, and gets back, build after build, the scratch its
// rank had.
func (rb *RankBuilder) takeOps() *rankOps {
	if rb.spent {
		panic(spentMsg)
	}
	if rb.ops == nil {
		rb.ops = takeOps()
	}
	return rb.ops
}

// nops returns how many ops the rank has.
func (rb *RankBuilder) nops() int {
	if rb.ops == nil {
		return 0
	}
	return len(rb.ops.shorts)
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

func (rb *RankBuilder) depend(tp **depTable, op OpID, deps []OpID) {
	if rb.spent {
		panic(spentMsg)
	}
	if n := rb.nops(); op < 0 || int(op) >= n {
		panic(fmt.Sprintf("goal: rank %d: dependency on op %d, which has not been added (%d ops)", rb.r, op, n))
	}
	if len(deps) == 0 {
		return
	}
	t := *tp
	if t == nil {
		t = takeTable()
		*tp = t
	}
	if int32(op) < t.lists-1 {
		panic(fmt.Sprintf("goal: rank %d: dependency added to op %d after one to op %d; a table's dependencies must be added in op order (see Builder)", rb.r, op, t.lists-1))
	}
	t.add(int32(op), deps)
}

// add appends deps to op's list, op being no older than the open list's.
func (t *depTable) add(op int32, deps []OpID) {
	if op >= t.lists {
		t.pad(op)
		t.open, t.count, t.lists = int32(len(t.enc)), 0, op+1
		t.enc = append(t.enc, 0)
	}
	for _, d := range deps {
		t.enc = appendDelta(t.enc, op, int32(d))
	}
	t.count += int32(len(deps))
	t.edges += int32(len(deps))
}

// pad closes the open list and begins every list before op's empty.
func (t *depTable) pad(op int32) {
	t.close()
	for ; t.lists < op; t.lists++ {
		t.enc = append(t.enc, 0)
	}
}

// close writes the open list's count into the byte kept for it, moving
// the list's edges right when the count needs more than one byte.
func (t *depTable) close() {
	if t.lists == 0 {
		return
	}
	if t.count < 0x80 {
		t.enc[t.open] = byte(t.count)
		return
	}
	var count [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(count[:], uint64(t.count))
	open := int(t.open)
	t.enc = append(t.enc, count[1:k]...)
	copy(t.enc[open+k:], t.enc[open+1:len(t.enc)-(k-1)])
	copy(t.enc[open:], count[:k])
}

// Build assembles the final Schedule and leaves the builder spent (see
// Builder).
func (b *Builder) Build() *Schedule {
	if b.ranks == nil {
		panic(spentMsg)
	}
	s := &Schedule{Comment: b.comment, Ranks: make([]RankProgram, len(b.ranks))}
	for r := range b.ranks {
		rb := &b.ranks[r]
		rp := &s.Ranks[r]
		if o := rb.ops; o != nil {
			rp.ops, rp.n = packRank(o.shorts, o.side), len(o.shorts)
		}
		rp.Requires = rb.requires.build(int32(rp.n))
		rp.IRequires = rb.irequires.build(int32(rp.n))
	}
	// The scratch goes back in the reverse of the order a producer that
	// works rank by rank takes it, so that the next such producer's rank r
	// gets the buffer rank r had, already the size it needs. Each handle
	// is left spent, its pointers nil.
	for r := len(b.ranks) - 1; r >= 0; r-- {
		rb := &b.ranks[r]
		putTable(rb.irequires)
		putTable(rb.requires)
		if rb.ops != nil {
			putOps(rb.ops)
		}
		*rb = RankBuilder{r: rb.r, spent: true}
	}
	b.ranks = nil
	return s
}

// putTable gives a table's scratch, if it was taken, back to encScratch.
func putTable(t *depTable) {
	if t != nil {
		encScratch.Put(t)
	}
}

// build finishes the table, nil if never taken, for a rank of n ops.
func (t *depTable) build(n int32) Deps {
	if t == nil {
		return Deps{n: n}
	}
	d := Deps{n: n, edges: t.edges}
	if t.edges > 0 {
		t.pad(n)
		d.enc = string(t.enc)
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

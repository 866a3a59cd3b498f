package goal

import "encoding/binary"

// Deps is one dependency table of a rank program — for every op, the list
// of ops it depends on — held in the binary encoding's own form: the
// table's section of a GOAL file (see binary.go), per op a uvarint list
// length followed by one zigzag varint of i − dep per edge, in the order
// the edges were added.
//
// This is the layout dependency tables have from the builder and the
// decoders through Validate and the codecs; the scheduler's successor
// tables are Succ, which Invert makes, and it counts each op's
// dependencies from them.
// GOAL graphs are chain-heavy and their edges short: an op has about one
// dependency, a few ops back, so a list costs a byte for its length and
// about a byte per edge. LULESH's 145 152 ops and 212 992 edges take
// 0.36 MB this way, against 1.43 MB in compressed-sparse-row form (4 B of
// offset per op plus 4 B per edge) and ten times that with a slice
// header per op. The bytes are a string: pointer-free, so the collector
// never scans them, immutable, so schedules share them (Compose does),
// and the file's: ParseBinary copies a section it has checked,
// WriteBinary (and so every fingerprint) writes it back.
// A reader takes the lists in op order through a DepCursor; Validate and
// Invert, which run on every decoded schedule, decode with uvarintAt into
// locals of their own, and the one reader that needs an op's list out of
// order, the acyclicity check, indexes the lists in kept scratch.
//
// A table without edges (`irequires`, on most schedules) records only its
// list count and has no bytes, so it costs nothing per op.
//
// The zero Deps is an empty table (Len() == 0).
type Deps struct {
	enc   string // the lists, encoded; empty exactly when edges is 0
	n     int32  // the number of lists
	edges int32  // the total length of all lists
}

// Len returns the number of lists, one per op of the rank program.
func (d Deps) Len() int { return int(d.n) }

// NumEdges returns the total length of all lists.
func (d Deps) NumEdges() int { return int(d.edges) }

// Cursor returns a cursor before the table's first list.
func (d Deps) Cursor() DepCursor { return DepCursor{enc: d.enc, op: -1} }

// DepCursor reads a dependency table's lists in op order: Next moves to
// the next op's list and Dep reads its edges one by one. It is a value
// that decodes the table's bytes in place, so a reader allocates nothing
// however many tables it walks. Edges a reader does not want are skipped
// by the next call to Next.
type DepCursor struct {
	enc  string
	off  int   // the next byte to decode
	op   int32 // the op whose list Next moved to last
	left int   // the edges of op's list not yet read
}

// Next moves to the next op's list and returns its length. It must not be
// called more often than the table has lists.
func (c *DepCursor) Next() int {
	for ; c.left > 0; c.left-- {
		_, c.off = uvarintAt(c.enc, c.off)
	}
	c.op++
	if c.enc == "" {
		return 0
	}
	n, off := uvarintAt(c.enc, c.off)
	c.off, c.left = off, int(n)
	return c.left
}

// Dep returns the next edge of the current list: the op it depends on.
// It must not be called more often than Next's count.
func (c *DepCursor) Dep() int32 {
	u, off := uvarintAt(c.enc, c.off)
	c.off = off
	c.left--
	return c.op - unzigzag(u)
}

// uvarintAt decodes the uvarint at enc[off]: its value and the offset
// after it. It decodes in a loop of its own, with no call, so that it
// inlines into the readers' loops and keeps the offset in a register:
// most counts and deltas are one byte.
func uvarintAt(enc string, off int) (uint64, int) {
	if b := enc[off]; b < 0x80 {
		return uint64(b), off + 1
	}
	var v uint64
	for shift := uint(0); ; shift += 7 {
		b := enc[off]
		off++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, off
		}
	}
}

// unzigzag returns the delta a zigzag varint's value u encodes. Every
// delta a table holds fits in 32 bits.
func unzigzag(u uint64) int32 { return int32(u>>1) ^ -int32(u&1) }

// appendDelta appends the encoding of edge op → dep. The delta is taken
// in 32 bits, as Dep undoes it, so any pair of int32s round-trips.
func appendDelta(b []byte, op, dep int32) []byte {
	return binary.AppendVarint(b, int64(op-dep))
}

// Succ is a successor table in compressed-sparse-row form — an offset
// array of Len()+1 entries and one edge array holding every list back to
// back — which Invert makes of a dependency table: list j holds, in
// ascending order, every op whose dependency list names j. The scheduler
// reads an op's successors at each completion, in whatever order ops
// complete, so they are indexed: O(1) to find, with both arrays
// pointer-free. A table without edges has neither array.
type Succ struct {
	n     int
	off   []int32 // op j's list is edges[off[j]:off[j+1]]; nil when edges is
	edges []int32
}

// Len returns the number of lists.
func (s Succ) Len() int { return s.n }

// Of returns op j's list: nil in a table without edges. The slice is a
// view into the table, capped so an append cannot reach the next list.
func (s Succ) Of(j int) []int32 {
	if s.off == nil {
		return nil
	}
	lo, hi := s.off[j], s.off[j+1]
	return s.edges[lo:hi:hi]
}

// Cleared returns an empty table (Len() 0) on s's arrays, for a later
// InvertInto to reuse.
func (s Succ) Cleared() Succ { return Succ{off: s.off[:0], edges: s.edges[:0]} }

// Invert returns the successor table of d: list j holds, in ascending
// order, every i whose list in d contains j. It is the one inversion in
// the tree: the scheduler's successor tables and the synthesis miner's
// depth profile are its results, and Validate needs none. Every edge must
// lie in [0, Len()), which Validate establishes first.
func (d Deps) Invert() Succ { return d.InvertInto(Succ{}) }

// InvertInto is Invert writing into dst's arrays where they are large
// enough, so that a caller inverting table after table (the scheduler, run
// after run) allocates only when a table outgrows the last. No view of
// dst's lists may outlive the call. A table without edges inverts to one
// without edges, leaving dst's arrays unused.
func (d Deps) InvertInto(dst Succ) Succ {
	n := int(d.n)
	if d.edges == 0 {
		return Succ{n: n}
	}
	inv := Succ{n: n, off: dst.off, edges: dst.edges}
	if cap(inv.off) < n+2 {
		inv.off = make([]int32, n+1, n+2)
	} else {
		inv.off = inv.off[:n+1]
		clear(inv.off[:n+2])
	}
	if cap(inv.edges) < int(d.edges) {
		inv.edges = make([]int32, d.edges)
	} else {
		inv.edges = inv.edges[:d.edges]
	}
	// Counting sort with the counts two slots right of their list: after
	// the prefix sum off[j+1] is the start of list j, so it serves as j's
	// fill cursor, and once list j is full it has advanced to the start of
	// list j+1 — the offset array is finished without a cursor array.
	off := inv.off[:n+2]
	pos := 0
	for i := int32(0); i < int32(n); i++ {
		k, next := uvarintAt(d.enc, pos)
		for pos = next; k > 0; k-- {
			var u uint64
			u, pos = uvarintAt(d.enc, pos)
			off[i-unzigzag(u)+2]++
		}
	}
	for j := 2; j < len(off); j++ {
		off[j] += off[j-1]
	}
	pos = 0
	for i := int32(0); i < int32(n); i++ {
		k, next := uvarintAt(d.enc, pos)
		for pos = next; k > 0; k-- {
			var u uint64
			u, pos = uvarintAt(d.enc, pos)
			e := i - unzigzag(u)
			inv.edges[off[e+1]] = i
			off[e+1]++
		}
	}
	return inv
}

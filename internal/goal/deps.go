package goal

// Deps is one dependency table of a rank program — for every op, the list
// of ops it depends on — in compressed-sparse-row form: an offset array of
// Len()+1 entries and one edge array holding every list back to back.
//
// This is the only layout dependency tables have, from the builder and the
// decoders through to the scheduler's successor tables (Invert). GOAL
// graphs are chain-heavy: an op has about one dependency, ~4.6 B of edge
// data across both tables. A slice-per-op table spends two 24-byte slice
// headers per op on that (48 B/op, ten times the data), and because a
// header holds a pointer the collector has to scan every one of them. CSR
// spends 4 B/op of offsets on each table that has edges, and both arrays
// are pointer-free, so the runtime allocates them noscan and a table costs
// the collector nothing however many ops it covers. A table without edges
// (`irequires`, on most schedules) records only its list count and has
// neither array, so it costs nothing per op.
//
// The zero Deps is an empty table (Len() == 0).
type Deps struct {
	n     int     // the number of lists
	off   []int32 // op i's list is edges[off[i]:off[i+1]]; nil when edges is
	edges []int32
}

// newDeps allocates a table of n lists over edges edge slots. Every
// producer goes through it or keeps its rule, so equal tables are also
// reflect.DeepEqual: off and edges are nil exactly when the table has no
// edges, and otherwise off has n+1 entries and one spare slot of capacity
// for the counting sorts (see Invert).
func newDeps(n, edges int) Deps {
	if edges == 0 {
		return Deps{n: n}
	}
	return Deps{n: n, off: make([]int32, n+1, n+2), edges: make([]int32, edges)}
}

// Len returns the number of lists, one per op of the rank program.
func (d Deps) Len() int { return d.n }

// NumEdges returns the total length of all lists.
func (d Deps) NumEdges() int { return len(d.edges) }

// Of returns op i's list, in the order its edges were added: nil in a
// table without edges. The slice is a view into the table, capped so an
// append cannot reach the next list.
func (d Deps) Of(i int) []int32 {
	if d.off == nil {
		return nil
	}
	lo, hi := d.off[i], d.off[i+1]
	return d.edges[lo:hi:hi]
}

// Clone returns a deep copy of d, sharing no array with it: what Compose
// gives each placed rank, so the merged schedule never aliases its inputs.
func (d Deps) Clone() Deps {
	c := newDeps(d.Len(), len(d.edges))
	copy(c.off, d.off)
	copy(c.edges, d.edges)
	return c
}

// Cleared returns an empty table (Len() 0, like the zero Deps) on d's
// arrays, for a later InvertInto to reuse.
func (d Deps) Cleared() Deps { return Deps{off: d.off[:0], edges: d.edges[:0]} }

// Invert returns the transposed table: list j of the result holds, in
// ascending order, every i whose list in d contains j — the successors of
// j when d lists dependencies. It is the one inversion in the tree: the
// scheduler's successor tables and the synthesis miner's depth profile
// are its results, and Validate needs none. Every edge must lie in
// [0, Len()), which Validate establishes first.
func (d Deps) Invert() Deps { return d.InvertInto(Deps{}) }

// InvertInto is Invert writing into dst's arrays where they are large
// enough, so that a caller inverting table after table (the scheduler, run
// after run) allocates only when a table outgrows the last. dst must not
// share an array with d, and no view of dst's lists may outlive the call.
// A table without edges inverts to one without edges, leaving dst's arrays
// unused.
func (d Deps) InvertInto(dst Deps) Deps {
	n := d.Len()
	if len(d.edges) == 0 {
		return Deps{n: n}
	}
	inv := Deps{n: n, off: dst.off, edges: dst.edges}
	if cap(inv.off) < n+2 {
		inv.off = make([]int32, n+1, n+2)
	} else {
		inv.off = inv.off[:n+1]
		clear(inv.off[:n+2])
	}
	if cap(inv.edges) < len(d.edges) {
		inv.edges = make([]int32, len(d.edges))
	} else {
		inv.edges = inv.edges[:len(d.edges)]
	}
	// Counting sort with the counts two slots right of their list: after
	// the prefix sum off[j+1] is the start of list j, so it serves as j's
	// fill cursor, and once list j is full it has advanced to the start of
	// list j+1 — the offset array is finished without a cursor array.
	off := inv.off[:n+2]
	for _, e := range d.edges {
		off[e+2]++
	}
	for j := 2; j < len(off); j++ {
		off[j] += off[j-1]
	}
	i := int32(0) // the list edge k belongs to
	for k, e := range d.edges {
		for int32(k) >= d.off[i+1] {
			i++
		}
		inv.edges[off[e+1]] = i
		off[e+1]++
	}
	return inv
}

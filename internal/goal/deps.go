package goal

import "slices"

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
// spends 8 B/op of offsets, and both arrays are pointer-free, so the
// runtime allocates them noscan and a table costs the collector nothing
// however many ops it covers.
//
// The zero Deps is an empty table (Len() == 0).
type Deps struct {
	off   []int32 // op i's list is edges[off[i]:off[i+1]]
	edges []int32
}

// newDeps allocates a table of n lists over edges edge slots. Every
// producer goes through it or AppendShifted, so equal tables are also
// reflect.DeepEqual: off is never nil, edges is nil when there are none.
// off has one spare slot of capacity for the counting sorts (see Invert).
func newDeps(n, edges int) Deps {
	d := Deps{off: make([]int32, n+1, n+2)}
	if edges > 0 {
		d.edges = make([]int32, edges)
	}
	return d
}

// Len returns the number of lists, one per op of the rank program.
func (d Deps) Len() int {
	if len(d.off) == 0 {
		return 0
	}
	return len(d.off) - 1
}

// NumEdges returns the total length of all lists.
func (d Deps) NumEdges() int { return len(d.edges) }

// Of returns op i's list, in the order its edges were added. The slice is
// a view into the table, capped so an append cannot reach the next list.
func (d Deps) Of(i int) []int32 {
	lo, hi := d.off[i], d.off[i+1]
	return d.edges[lo:hi:hi]
}

// AppendShifted appends src's lists after d's, adding base to every edge:
// what a rank program's tables become when its ops are appended base
// positions into another program (placement.Merge). Into a zero Deps with
// base 0 it is a deep copy (Compose).
func (d *Deps) AppendShifted(src Deps, base int32) {
	d.off = slices.Grow(d.off, src.Len()+1)
	if len(d.off) == 0 {
		d.off = append(d.off, 0)
	}
	at := int32(len(d.edges))
	for i := 1; i < len(src.off); i++ {
		d.off = append(d.off, at+src.off[i])
	}
	d.edges = slices.Grow(d.edges, len(src.edges))
	for _, e := range src.edges {
		d.edges = append(d.edges, e+base)
	}
}

// Invert returns the transposed table: list j of the result holds, in
// ascending order, every i whose list in d contains j — the successors of
// j when d lists dependencies. It is the one inversion in the tree: the
// scheduler's successor tables and the synthesis miner's depth profile
// are its results, and Validate needs none. Every edge must lie in
// [0, Len()), which Validate establishes first.
func (d Deps) Invert() Deps {
	n := d.Len()
	// Counting sort with the counts two slots right of their list: after
	// the prefix sum off[j+1] is the start of list j, so it serves as j's
	// fill cursor, and once list j is full it has advanced to the start of
	// list j+1 — the offset array is finished without a cursor array.
	inv := newDeps(n, len(d.edges))
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

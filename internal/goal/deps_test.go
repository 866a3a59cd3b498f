package goal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// depsFixture builds a small schedule exercising every op attribute and
// both dependency kinds.
func depsFixture() *Schedule {
	b := NewBuilder(3)
	r0 := b.Rank(0)
	c := r0.Calc(100)
	cc := r0.CalcOn(250, 2)
	s1 := r0.Send(64, 1, 0)
	s2 := r0.SendOn(300000, 2, 42, 1)
	r0.Requires(s2, c, s1)
	r0.IRequires(s2, cc)
	r1 := b.Rank(1)
	r1.Recv(64, 0, 0)
	r2 := b.Rank(2)
	rv := r2.RecvOn(300000, 0, 42, 3)
	w := r2.Calc(7)
	r2.Requires(w, rv)
	return b.MustBuild()
}

// lists spells a table out as one slice per op, read through its cursor.
func lists(d Deps) [][]int32 {
	out := make([][]int32, d.Len())
	c := d.Cursor()
	for i := range out {
		out[i] = []int32{}
		for k := c.Next(); k > 0; k-- {
			out[i] = append(out[i], c.Dep())
		}
	}
	return out
}

// of returns op i's list of d, or nil when it is empty.
func (d Deps) of(i int) []int32 {
	if l := lists(d)[i]; len(l) > 0 {
		return l
	}
	return nil
}

// succLists spells a successor table out as one slice per op.
func succLists(s Succ) [][]int32 {
	out := make([][]int32, s.Len())
	for j := range out {
		out[j] = append([]int32{}, s.Of(j)...)
	}
	return out
}

// csrDeps is the layout Deps had before it held the binary encoding's own
// bytes: compressed sparse rows, an offset array of n+1 entries and one
// edge array holding every list back to back (4 B per op and 4 B per
// edge). It is the reference FuzzDepsMatchCSR holds the encoded tables,
// their cursor, their encoding and their inversion to.
type csrDeps struct {
	n     int
	off   []int32
	edges []int32
}

// csrOf lays a per-op model out as compressed sparse rows.
func csrOf(model [][]int32) csrDeps {
	d := csrDeps{n: len(model), off: make([]int32, len(model)+1)}
	for i, l := range model {
		d.edges = append(d.edges, l...)
		d.off[i+1] = int32(len(d.edges))
	}
	return d
}

func (d csrDeps) Of(i int) []int32 { return d.edges[d.off[i]:d.off[i+1]] }

// encode appends the table as the binary format spells it: per op its
// list length, then each edge as the distance back from the op.
func (d csrDeps) encode(b []byte) []byte {
	for i := 0; i < d.n; i++ {
		b = binary.AppendUvarint(b, uint64(len(d.Of(i))))
		for _, dep := range d.Of(i) {
			b = binary.AppendVarint(b, int64(int32(i)-dep))
		}
	}
	return b
}

// invert is the counting sort Deps.Invert ran on this layout: list j of
// the result holds, ascending, every i whose list contains j.
func (d csrDeps) invert() csrDeps {
	inv := csrDeps{n: d.n, off: make([]int32, d.n+2), edges: make([]int32, len(d.edges))}
	for _, e := range d.edges {
		inv.off[e+2]++
	}
	for j := 2; j < len(inv.off); j++ {
		inv.off[j] += inv.off[j-1]
	}
	for i := 0; i < d.n; i++ {
		for _, e := range d.Of(i) {
			inv.edges[inv.off[e+1]] = int32(i)
			inv.off[e+1]++
		}
	}
	inv.off = inv.off[:d.n+1]
	return inv
}

// model spells a CSR table out as one slice per op.
func (d csrDeps) model() [][]int32 {
	out := make([][]int32, d.n)
	for i := range out {
		out[i] = append([]int32{}, d.Of(i)...)
	}
	return out
}

// TestBuilderMatchesPerOpAppendModel: however ops and edges interleave —
// dependencies added to an op after newer ones exist, an op's list in
// several calls, duplicates, forward references — as long as each table's
// calls name ops in non-decreasing order (the Builder's contract), the
// built tables equal a naive one-slice-per-op append model, and the
// tables come out the same through the binary encoding, a Compose copy
// and a double inversion.
func TestBuilderMatchesPerOpAppendModel(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		b := NewBuilder(2)
		b.Rank(0).Calc(0)
		b.Rank(1).Calc(0)
		rb := b.Rank(rng.Intn(2))
		req, ireq := [][]int32{{}}, [][]int32{{}}
		var last [2]int // the op each table last took a call for
		for step, steps := 0, rng.Intn(60); step < steps; step++ {
			if len(req) < 2 || rng.Intn(3) == 0 {
				rb.Calc(int64(step))
				req, ireq = append(req, []int32{}), append(ireq, []int32{})
				continue
			}
			// Mostly an op depends on earlier ones; one call in thirty picks
			// its dependencies anywhere (forward edges, self edges, cycles).
			k, model, add := 0, &req, rb.Requires
			if rng.Intn(4) == 0 {
				k, model, add = 1, &ireq, rb.IRequires
			}
			anywhere := rng.Intn(30) == 0
			lo := last[k]
			if !anywhere {
				lo = max(lo, 1)
			}
			op, deps := lo+rng.Intn(len(req)-lo), make([]OpID, rng.Intn(3))
			if len(deps) > 0 {
				last[k] = op
			}
			for k := range deps {
				deps[k] = OpID(rng.Intn(len(req)))
				if !anywhere {
					deps[k] = OpID(rng.Intn(op))
				}
				(*model)[op] = append((*model)[op], int32(deps[k]))
			}
			add(OpID(op), deps...)
		}
		s := b.Build()
		rp := &s.Ranks[rb.Rank()]
		if got := lists(rp.Requires); !reflect.DeepEqual(got, append([][]int32{}, req...)) {
			t.Fatalf("trial %d: requires %v, model %v", trial, got, req)
		}
		if got := lists(rp.IRequires); !reflect.DeepEqual(got, append([][]int32{}, ireq...)) {
			t.Fatalf("trial %d: irequires %v, model %v", trial, got, ireq)
		}
		if rp.Requires.NumEdges()+rp.IRequires.NumEdges() != int(s.ComputeStats().DepEdges) {
			t.Fatalf("trial %d: NumEdges disagrees with ComputeStats", trial)
		}
		if err := modelInRange(req); err == nil {
			if inv := rp.Requires.Invert(); !reflect.DeepEqual(succLists(inv), csrOf(req).invert().model()) {
				t.Fatalf("trial %d: inversion %v, want that of %v", trial, succLists(inv), req)
			}
		}
		// Random edges may form a cycle. Validate proves most ranks acyclic
		// from index order alone and searches the rest on the transposed
		// graph; a plain depth-first search over the model is the referee.
		err := s.Validate()
		if cyclic := modelHasCycle(req, ireq); (err != nil) != cyclic {
			t.Fatalf("trial %d: Validate = %v, model cyclic = %v (requires %v, irequires %v)", trial, err, cyclic, req, ireq)
		}
		if err != nil {
			continue // the codecs below validate
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, s); err != nil {
			t.Fatal(err)
		}
		decoded, err := ParseBinary(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		composed, err := Compose([][]int{{0, 1}}, s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(decoded.Ranks, s.Ranks) || !reflect.DeepEqual(composed.Ranks, s.Ranks) {
			t.Fatalf("trial %d: decoded or composed tables differ from the built ones", trial)
		}
	}
}

// modelHasCycle reports whether the union of two per-op dependency models
// has a cycle, by depth-first search with the usual three colours.
func modelHasCycle(req, ireq [][]int32) bool {
	const (
		white = iota
		grey
		black
	)
	colour := make([]int, len(req))
	var visit func(i int32) bool
	visit = func(i int32) bool {
		colour[i] = grey
		for _, d := range append(append([]int32{}, req[i]...), ireq[i]...) {
			if colour[d] == grey || (colour[d] == white && visit(d)) {
				return true
			}
		}
		colour[i] = black
		return false
	}
	for i := range req {
		if colour[i] == white && visit(int32(i)) {
			return true
		}
	}
	return false
}

// modelInRange reports whether every edge of a model names one of its ops.
func modelInRange(model [][]int32) error {
	for i, l := range model {
		for _, d := range l {
			if d < 0 || int(d) >= len(model) {
				return fmt.Errorf("op %d depends on op %d of %d", i, d, len(model))
			}
		}
	}
	return nil
}

// TestDepsViewsAreCapped: a successor list is a view into its table that
// an append cannot write past.
func TestDepsViewsAreCapped(t *testing.T) {
	s := depsFixture()
	inv := s.Ranks[0].Requires.Invert() // ops 0 and 2 precede op 3
	_ = append(inv.Of(1), 99)
	if got := inv.Of(2); !reflect.DeepEqual(got, []int32{3}) {
		t.Fatalf("append through an empty list's view overwrote its neighbour: %v", got)
	}
	if (Deps{}).Len() != 0 || (Deps{}).NumEdges() != 0 || (Succ{}).Len() != 0 {
		t.Fatal("the zero Deps and Succ must be empty tables")
	}
}

// TestEdgelessTablesCarryNoOffsets: a table without edges is its list
// count alone — no bytes — whichever producer made it (the builder with
// or without a Grow, the decoder), so equal tables stay
// reflect.DeepEqual, each of its lists is empty, and it inverts to a
// successor table without arrays.
func TestEdgelessTablesCarryNoOffsets(t *testing.T) {
	b := NewBuilder(2)
	b.Rank(0).Grow(3, 0, 0)
	b.Rank(1).Grow(2, 1, 1) // counted edges that never come
	for r := 0; r < 2; r++ {
		for i := 0; i < 3-r; i++ {
			b.Rank(r).Calc(int64(i))
		}
	}
	s := b.MustBuild()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	decoded, err := ParseBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for r, rp := range s.Ranks {
		n := rp.Len()
		want := Deps{n: int32(n)}
		for name, d := range map[string]Deps{
			"built requires":    rp.Requires,
			"built irequires":   rp.IRequires,
			"decoded requires":  decoded.Ranks[r].Requires,
			"decoded irequires": decoded.Ranks[r].IRequires,
		} {
			if !reflect.DeepEqual(d, want) {
				t.Errorf("rank %d %s: %#v, want %#v", r, name, d, want)
			}
			c := d.Cursor()
			for i := 0; i < d.Len(); i++ {
				if k := c.Next(); k != 0 {
					t.Errorf("rank %d %s: list %d has %d edges, want none", r, name, i, k)
				}
			}
		}
		inv := rp.Requires.InvertInto(depsFixture().Ranks[0].Requires.Invert())
		if !reflect.DeepEqual(inv, Succ{n: n}) {
			t.Errorf("rank %d: inverse %#v, want %#v", r, inv, Succ{n: n})
		}
	}
}

// TestValidateRejectsTableLengthMismatch: a table must carry exactly one
// list per op, whichever side is short.
func TestValidateRejectsTableLengthMismatch(t *testing.T) {
	for name, edit := range map[string]func(*RankProgram){
		"requires short":  func(rp *RankProgram) { rp.Requires = Deps{} },
		"irequires short": func(rp *RankProgram) { rp.IRequires = Deps{} },
		"requires long":   func(rp *RankProgram) { rp.Requires = Deps{n: int32(rp.Len() + 1)} },
		"ops short":       func(rp *RankProgram) { rp.n = 1 },
	} {
		s := depsFixture()
		edit(&s.Ranks[0])
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "dependency table length mismatch") {
			t.Fatalf("%s: Validate = %v, want a table length mismatch", name, err)
		}
	}
}

// TestParseBinaryRoundTrip: encode → decode reproduces the builder's
// schedule exactly, through the byte-slice entry point and
// the reader one (which drains into it).
func TestParseBinaryRoundTrip(t *testing.T) {
	s := depsFixture()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	fromBytes, err := ParseBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromBytes.Ranks, s.Ranks) {
		t.Fatalf("ParseBinary round trip changed the schedule:\nin:  %+v\nout: %+v", s.Ranks, fromBytes.Ranks)
	}
	fromReader, err := ReadBinary(iotest.OneByteReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromReader, fromBytes) {
		t.Fatalf("ReadBinary over a one-byte reader decoded differently:\nReadBinary:  %+v\nParseBinary: %+v", fromReader, fromBytes)
	}
}

// magic builds a binary-GOAL input: the header followed by tail.
func magic(tail ...byte) []byte { return append([]byte(binaryMagic), tail...) }

// wideSend is a binary GOAL schedule of two ranks: rank 0 sends 8 bytes to
// the rank peer names, with the cpu and, when tag is not 0, the tag given,
// and rank 1 receives them from rank 0 with tag 0. Fields are written as
// the varints the encoder would write for values of any width.
func wideSend(peer, cpu uint64, tag int64) []byte {
	flags := byte(KindSend) | 1<<3
	if tag != 0 {
		flags |= 1 << 2
	}
	b := magic(2, 1, flags, 8)
	b = binary.AppendUvarint(b, peer)
	if tag != 0 {
		b = binary.AppendVarint(b, tag)
	}
	b = binary.AppendUvarint(b, cpu)
	return append(b, 0, 0, 1, byte(KindRecv), 8, 0, 0, 0)
}

// TestParseBinaryRefusesWideFields: a peer, cpu or tag varint outside
// int32, or a dependency delta that is, is refused and named, where the
// decoder used to keep its low 32 bits: wideSend(1<<32+1, 1<<32-3, 0) read
// as a send of cpu -3 to peer 1, which the text parser and Validate refuse.
func TestParseBinaryRefusesWideFields(t *testing.T) {
	if _, err := ParseBinary(wideSend(1, 2, 0)); err != nil {
		t.Fatalf("the narrow form of the fixture: %v", err)
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"peer and cpu", wideSend(1<<32+1, 1<<32-3, 0), "peer"},
		{"peer", wideSend(1<<31, 2, 0), "peer"},
		{"cpu", wideSend(1, 1<<32-3, 0), "cpu"},
		{"cpu 2^31", wideSend(1, 1<<31, 0), "cpu"},
		{"tag", wideSend(1, 2, 1<<32+5), "tag"},
		{"negative tag", wideSend(1, 2, -1<<31-1), "tag"},
		// one rank: a calc, then a calc requiring delta 2^32+1 (op 0 in 32 bits)
		{"dependency delta", append(binary.AppendVarint(magic(1, 2, 0, 1, 0, 1, 0, 1), 1<<32+1), 0, 0), "delta"},
	} {
		_, err := ParseBinary(c.data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming the %s", c.name, err, c.want)
		}
	}
	b := NewBuilder(1)
	b.Rank(0).CalcOn(10, -1)
	if err := b.Build().Validate(); err == nil || !strings.Contains(err.Error(), "cpu") {
		t.Errorf("Validate of a calc on cpu -1: %v, want an error naming the cpu", err)
	}
}

// TestBinaryDecodeErrors feeds corrupt input through every entry point of
// the one decoder — ParseBinary, ReadBinary, and Decode for inputs that
// carry the magic — and wants the same goal:-prefixed rejection from each.
func TestBinaryDecodeErrors(t *testing.T) {
	s := depsFixture()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "bad magic"},
		{"text", []byte("num_ranks 1\n"), "bad magic"},
		{"magic only", magic(), "rank count"},
		{"zero ranks", magic(0), "implausible rank count"},
		{"hostile rank count", magic(0xe8, 0x07), "exceeds remaining input"}, // 1000 ranks, 0 bytes left
		{"hostile op count", magic(1, 0xff, 0xff, 0x7f), "exceeds remaining input"},
		// one rank, one calc of size 0, then a requires count far past the input
		{"hostile dep count", magic(1, 1, 0, 0, 0xff, 0xff, 0xff, 0x7f), "exceeds remaining input"},
		{"truncated", enc[:len(enc)-3], ""}, // any error is fine, must not panic
	}
	decoders := []struct {
		name   string
		decode func([]byte) (*Schedule, error)
	}{
		{"ParseBinary", ParseBinary},
		{"ReadBinary", func(b []byte) (*Schedule, error) { return ReadBinary(bytes.NewReader(b)) }},
		{"Decode", Decode},
	}
	for _, tc := range cases {
		for _, d := range decoders {
			if d.name == "Decode" && !IsBinary(tc.data) {
				continue // Decode hands magic-less input to the text parser
			}
			t.Run(tc.name+"/"+d.name, func(t *testing.T) {
				_, err := d.decode(tc.data)
				if err == nil {
					t.Fatal("corrupt input accepted")
				}
				if !strings.HasPrefix(err.Error(), "goal: ") {
					t.Fatalf("error %q is not goal:-prefixed", err)
				}
				if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error %q does not mention %q", err, tc.want)
				}
			})
		}
	}
}

// TestHostileHeadersRejectedBeforeAllocating: a header may declare up to
// 2^24 ranks, 2^62 ops or dependencies; each count must be refused from
// the bytes that remain, not discovered after allocating for it. Trusting
// any of these three would allocate hundreds of megabytes.
func TestHostileHeadersRejectedBeforeAllocating(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x0f} // 2^32-1
	inputs := map[string][]byte{
		"ranks": magic(0xff, 0xff, 0xff, 0x07), // 2^24-1 ranks
		"ops":   magic(append([]byte{1}, huge...)...),
		"deps":  magic(append([]byte{1, 1, 0, 0}, huge...)...),
	}
	for name, data := range inputs {
		for _, decode := range []func([]byte) (*Schedule, error){
			Decode,
			func(b []byte) (*Schedule, error) { return ReadBinary(bytes.NewReader(b)) },
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := decode(data)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "exceeds remaining input") {
				t.Fatalf("%s: hostile count not rejected: %v", name, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("%s: decoder allocated %d bytes before rejecting a %d-byte input", name, grew, len(data))
			}
		}
	}
}

// TestReadBinaryReaderErrors: a failing or truncating reader surfaces as
// a goal:-prefixed error, never a partial schedule.
func TestReadBinaryReaderErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, depsFixture()); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	boom := errors.New("disk on fire")
	for name, r := range map[string]io.Reader{
		"failing":            iotest.ErrReader(boom),
		"failing mid-stream": io.MultiReader(bytes.NewReader(enc[:len(enc)/2]), iotest.ErrReader(boom)),
		"truncating":         io.LimitReader(bytes.NewReader(enc), int64(len(enc)-3)),
	} {
		s, err := ReadBinary(r)
		if err == nil || s != nil {
			t.Fatalf("%s: ReadBinary = (%v, %v), want an error and no schedule", name, s, err)
		}
		if !strings.HasPrefix(err.Error(), "goal: ") {
			t.Fatalf("%s: error %q is not goal:-prefixed", name, err)
		}
		if strings.HasPrefix(name, "failing") && !errors.Is(err, boom) {
			t.Fatalf("%s: error %q does not wrap the reader's", name, err)
		}
	}
}

// TestBuildAllocsPerRank pins the flat layout and the hand-over: a counted
// rank costs a constant number of allocations from NewBuilder to Build
// regardless of op count — the builder's ranks, then in Build the rank's
// one array of ops, the Requires table's bytes, the schedule and its
// ranks. The ops are gathered and the table encoded in scratch kept from
// the last build, the IRequires table has no edges and so no bytes, and
// the Builder itself stays on the stack here (NewBuilder is inlined).
// Handles come out of the builder, so Rank allocates nothing.
func TestBuildAllocsPerRank(t *testing.T) {
	for _, n := range []int{1000, 20000} {
		allocs := testing.AllocsPerRun(10, func() {
			b := NewBuilder(1)
			rb := b.Rank(0)
			rb.Grow(n, n-1, 0)
			prev := rb.Calc(1)
			for i := 1; i < n; i++ {
				cur := b.Rank(0).Calc(1)
				rb.Requires(cur, prev)
				prev = cur
			}
			_ = b.Build()
		})
		if allocs > 5 {
			t.Fatalf("building a counted %d-op rank allocated %.0f times; the layout needs 5", n, allocs)
		}
	}
}

// randomModel draws one rank's dependency table of nops lists as a per-op
// model. Most edges point a few ops back; shape adds what a chain-heavy
// table rarely has: bit 0 forward edges, bit 1 an op with at least 128
// dependencies (a two-byte count), bit 2 deltas beyond ±63 (two-byte and
// longer edges), bit 3 a table without edges.
func randomModel(rng *rand.Rand, nops int, shape byte) [][]int32 {
	model := make([][]int32, nops)
	if shape&8 != 0 {
		return model
	}
	wide := -1
	if shape&2 != 0 && nops > 0 {
		wide = rng.Intn(nops)
	}
	for i := range model {
		k := rng.Intn(3)
		if i == wide {
			k = 128 + rng.Intn(200)
		}
		for j := 0; j < k; j++ {
			d := i - 1 - rng.Intn(4)
			switch {
			case shape&1 != 0 && rng.Intn(6) == 0:
				d = i + 1 + rng.Intn(nops)
			case shape&4 != 0 && rng.Intn(3) == 0:
				d = i - 64 - rng.Intn(20000)
			}
			if d < 0 || d >= nops {
				d = rng.Intn(nops)
			}
			model[i] = append(model[i], int32(d))
		}
	}
	return model
}

// FuzzDepsMatchCSR holds the encoded tables to the CSR layout they
// replaced (csrDeps): random tables — forward edges, lists of 128 and
// more, deltas beyond ±63, tables without edges — built through the
// Builder in op order (each list in one or two calls) read back the
// model's lists through the cursor, encode to the bytes the CSR tables
// encode to, decode to themselves, invert to the CSR inversion's
// successor lists, and are valid exactly when the model has no cycle.
func FuzzDepsMatchCSR(f *testing.F) {
	for _, seed := range []struct {
		seed  int64
		nops  uint16
		shape byte
	}{{1, 0, 0}, {2, 1, 0}, {3, 40, 0}, {4, 300, 1}, {5, 300, 2}, {6, 3000, 4}, {7, 50, 8}, {8, 400, 7}, {9, 2, 1}} {
		f.Add(seed.seed, seed.nops, seed.shape)
	}
	f.Fuzz(func(t *testing.T, seed int64, nops uint16, shape byte) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nops % 4096)
		req, ireq := randomModel(rng, n, shape), randomModel(rng, n, shape>>4)
		b := NewBuilder(1)
		rb := b.Rank(0)
		for i := 0; i < n; i++ {
			rb.Calc(int64(i))
		}
		for i := 0; i < n; i++ {
			for t, model := range [2][][]int32{req, ireq} {
				add := rb.Requires
				if t == 1 {
					add = rb.IRequires
				}
				deps := make([]OpID, len(model[i]))
				for k, d := range model[i] {
					deps[k] = OpID(d)
				}
				half := rng.Intn(len(deps) + 1)
				add(OpID(i), deps[:half]...)
				add(OpID(i), deps[half:]...)
			}
		}
		s := b.Build()
		rp := &s.Ranks[0]
		if got := lists(rp.Requires); !reflect.DeepEqual(got, csrOf(req).model()) {
			t.Fatalf("requires %v, model %v", got, req)
		}
		if got := lists(rp.IRequires); !reflect.DeepEqual(got, csrOf(ireq).model()) {
			t.Fatalf("irequires %v, model %v", got, ireq)
		}
		want := binary.AppendUvarint(magic(1), uint64(n))
		for i := range rp.Len() {
			op := rp.Op(i)
			want = appendRefOp(want, fieldsOf(op))
		}
		want = csrOf(ireq).encode(csrOf(req).encode(want))
		var got bytes.Buffer
		if err := WriteBinary(&got, s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("WriteBinary wrote %x, the CSR tables encode to %x", got.Bytes(), want)
		}
		for name, m := range map[string][][]int32{"requires": req, "irequires": ireq} {
			d := rp.Requires
			if name == "irequires" {
				d = rp.IRequires
			}
			if inv := d.Invert(); !reflect.DeepEqual(succLists(inv), csrOf(m).invert().model()) {
				t.Fatalf("%s inverts to %v, the CSR table to %v", name, succLists(inv), csrOf(m).invert().model())
			}
		}
		err := s.Validate()
		if cyclic := modelHasCycle(req, ireq); (err != nil) != cyclic {
			t.Fatalf("Validate = %v, model cyclic = %v", err, cyclic)
		}
		if err != nil {
			return
		}
		decoded, err := ParseBinary(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := decoded.Ranks[0]; !reflect.DeepEqual(got.Requires, rp.Requires) || !reflect.DeepEqual(got.IRequires, rp.IRequires) {
			t.Fatal("decoding the CSR tables' bytes built other tables")
		}
	})
}

// TestDecoderCanonicalisesLongVarints: a file that spells a dependency
// count or delta in more bytes than it needs (a varint with trailing zero
// groups, which binary.Uvarint accepts) decodes to the table of the
// shortest spelling, held at its exact length, and encodes again to the
// canonical file's bytes — which are what a schedule's fingerprint
// digests (sim.TestLongVarintsFingerprintAsCanonical).
func TestDecoderCanonicalisesLongVarints(t *testing.T) {
	canonical := binarySeed(depsFixture())
	// Rank 0's requires section is 0 0 0 2 6 2: op 3 needs ops 0 and 2.
	sec := []byte{0, 0, 0, 2, 6, 2}
	at := bytes.Index(canonical, append(sec, 0, 0, 0, 1)) // irequires: op 3 needs op 1
	if at < 0 {
		t.Fatalf("fixture encoding %x has no section %x", canonical, sec)
	}
	for name, long := range map[string][]byte{
		"count": {0, 0, 0, 0x82, 0x00, 6, 2},
		"delta": {0, 0, 0, 2, 0x86, 0x80, 0x00, 2},
		"both":  {0x80, 0x00, 0, 0, 0x82, 0x80, 0x80, 0x00, 6, 0x82, 0x00},
	} {
		file := append(append(append([]byte{}, canonical[:at]...), long...), canonical[at+len(sec):]...)
		s, err := ParseBinary(file)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := s.Ranks[0].Requires.enc; got != string(sec) {
			t.Errorf("%s: table holds %x, want %x", name, got, sec)
		}
		if got := binarySeed(s); !bytes.Equal(got, canonical) {
			t.Errorf("%s: encodes to %x, want the canonical %x", name, got, canonical)
		}
	}
}

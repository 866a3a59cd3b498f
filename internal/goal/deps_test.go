package goal

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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

// lists spells a table out as one slice per op, the model the CSR layout
// is checked against.
func lists(d Deps) [][]int32 {
	out := make([][]int32, d.Len())
	for i := range out {
		out[i] = append([]int32{}, d.Of(i)...)
	}
	return out
}

// TestBuilderMatchesPerOpAppendModel: whatever order ops and edges arrive
// in — dependencies added to old ops after newer ones exist, duplicates,
// forward references — the built tables equal a naive one-slice-per-op
// append model, and the tables come out the same through the binary
// encoding, a Compose copy and a double inversion.
func TestBuilderMatchesPerOpAppendModel(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		b := NewBuilder(2)
		b.Rank(0).Calc(0)
		b.Rank(1).Calc(0)
		rb := b.Rank(rng.Intn(2))
		req, ireq := [][]int32{{}}, [][]int32{{}}
		for step, steps := 0, rng.Intn(60); step < steps; step++ {
			if len(req) < 2 || rng.Intn(3) == 0 {
				rb.Calc(int64(step))
				req, ireq = append(req, []int32{}), append(ireq, []int32{})
				continue
			}
			// Mostly an op depends on earlier ones; one call in thirty picks
			// both ends anywhere (forward edges, self edges, cycles).
			anywhere := rng.Intn(30) == 0
			op, deps := rng.Intn(len(req)), make([]OpID, rng.Intn(3))
			if !anywhere {
				op = 1 + rng.Intn(len(req)-1)
			}
			model, add := &req, rb.Requires
			if rng.Intn(4) == 0 {
				model, add = &ireq, rb.IRequires
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
		if inv := rp.Requires.Invert().Invert(); !reflect.DeepEqual(lists(inv), sorted(req)) {
			t.Fatalf("trial %d: double inversion %v, want each list of %v sorted", trial, lists(inv), req)
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

// sorted returns a copy of a per-op model with every list ascending: what
// inverting a table twice yields.
func sorted(model [][]int32) [][]int32 {
	out := make([][]int32, len(model))
	for i, l := range model {
		out[i] = append([]int32{}, l...)
		slices.Sort(out[i])
	}
	return out
}

func TestDepsViewsAreCapped(t *testing.T) {
	s := depsFixture()
	d := s.Ranks[0].Requires // op 3 requires ops 0 and 2
	_ = append(d.Of(2), 99)
	if got := d.Of(3); !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Fatalf("append through an empty list's view overwrote its neighbour: %v", got)
	}
	if (Deps{}).Len() != 0 || (Deps{}).NumEdges() != 0 {
		t.Fatal("the zero Deps must be an empty table")
	}
}

// TestDepsClone: a clone equals its source, shares no array with it, and
// the zero Deps clones to an empty table.
func TestDepsClone(t *testing.T) {
	src := depsFixture().Ranks[0].Requires
	c := src.Clone()
	if !reflect.DeepEqual(c, src) {
		t.Fatalf("Clone built %v, want %v", lists(c), lists(src))
	}
	c.Of(3)[0] = 1
	if got := src.Of(3); !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Fatalf("writing the clone changed the source: %v", got)
	}
	if z := (Deps{}).Clone(); z.Len() != 0 || z.NumEdges() != 0 {
		t.Fatalf("clone of the zero Deps has %d lists, %d edges", z.Len(), z.NumEdges())
	}
}

// TestValidateRejectsTableLengthMismatch: a table must carry exactly one
// list per op, whichever side is short.
func TestValidateRejectsTableLengthMismatch(t *testing.T) {
	for name, edit := range map[string]func(*RankProgram){
		"requires short":  func(rp *RankProgram) { rp.Requires = Deps{} },
		"irequires short": func(rp *RankProgram) { rp.IRequires = Deps{} },
		"requires long":   func(rp *RankProgram) { rp.Requires = newDeps(len(rp.Ops)+1, 0) },
		"ops short":       func(rp *RankProgram) { rp.Ops = rp.Ops[:1] },
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
// regardless of op count — the builder and its ranks, the ops, the
// Requires offset and edge arrays (Grow), the schedule, its ranks and the
// IRequires offset array (Build; IRequires has no edges) — and Build copies
// none of them. Handles come out of the builder, so Rank allocates nothing.
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
		if allocs > 8 {
			t.Fatalf("building a counted %d-op rank allocated %.0f times; the CSR layout needs 8", n, allocs)
		}
	}
}

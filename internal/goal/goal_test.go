package goal

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"atlahs/internal/xrand"
)

// buildPaperExample reproduces the schedule of paper Fig 3 (rank 0 of a
// 2-rank schedule).
func buildPaperExample() *Schedule {
	b := NewBuilder(2)
	r0 := b.Rank(0)
	l1 := r0.Calc(100)
	l2 := r0.CalcOn(200, 0)
	l3 := r0.CalcOn(200, 1)
	l4 := r0.Send(10, 1, 0)
	r0.Requires(l2, l1)
	r0.Requires(l3, l1)
	r0.Requires(l4, l2, l3)
	b.Rank(1).Recv(10, 0, 0)
	return b.MustBuild()
}

func TestBuilderPaperExample(t *testing.T) {
	s := buildPaperExample()
	if s.NumRanks() != 2 {
		t.Fatalf("ranks=%d", s.NumRanks())
	}
	rp := &s.Ranks[0]
	if len(rp.Ops) != 4 {
		t.Fatalf("ops=%d", len(rp.Ops))
	}
	if rp.Ops[2].CPU != 1 {
		t.Fatalf("l3 cpu=%d, want 1", rp.Ops[2].CPU)
	}
	if got := rp.Requires.Of(3); len(got) != 2 {
		t.Fatalf("l4 deps=%v", got)
	}
	st := s.ComputeStats()
	if st.Sends != 1 || st.Recvs != 1 || st.Calcs != 3 || st.SendBytes != 10 {
		t.Fatalf("stats=%+v", st)
	}
	if st.MaxStreams != 2 {
		t.Fatalf("streams=%d, want 2", st.MaxStreams)
	}
	if err := s.CheckMatched(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	b := NewBuilder(1)
	r := b.Rank(0)
	a := r.Calc(1)
	c := r.Calc(2)
	r.Requires(a, c)
	r.Requires(c, a)
	if err := b.Build().Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}

// TestWarmValidateAllocs: the cycle check's arrays are kept between
// calls, so validating again a schedule whose dependencies point forward,
// which Validate must check for cycles, allocates nothing, whoever calls
// it.
func TestWarmValidateAllocs(t *testing.T) {
	const nranks, nops = 4, 1000
	b := NewBuilder(nranks)
	for r := 0; r < nranks; r++ {
		rb := b.Rank(r)
		next := rb.Calc(1)
		for i := 1; i < nops; i++ {
			cur := rb.Calc(1)
			rb.Requires(next, cur) // each op waits for the one after it
			next = cur
		}
	}
	s := b.MustBuild()
	if allocs := testing.AllocsPerRun(20, func() {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm Validate of forward chains allocated %.1f times per call", allocs)
	}
}

func TestValidateCatchesBadPeer(t *testing.T) {
	b := NewBuilder(2)
	b.Rank(0).Send(8, 5, 0)
	if err := b.Build().Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("bad peer not detected: %v", err)
	}
}

func TestValidateCatchesSelfSend(t *testing.T) {
	b := NewBuilder(2)
	b.Rank(1).Send(8, 1, 0)
	if err := b.Build().Validate(); err == nil || !strings.Contains(err.Error(), "self") {
		t.Fatalf("self-send not detected: %v", err)
	}
}

func TestCheckMatchedDetectsOrphans(t *testing.T) {
	b := NewBuilder(2)
	b.Rank(0).Send(8, 1, 7)
	if err := b.Build().CheckMatched(); err == nil {
		t.Fatal("unmatched send not detected")
	}
	b2 := NewBuilder(2)
	b2.Rank(1).Recv(8, 0, 7)
	if err := b2.Build().CheckMatched(); err == nil {
		t.Fatal("unmatched recv not detected")
	}
}

func TestCheckMatchedWildcard(t *testing.T) {
	b := NewBuilder(2)
	b.Rank(0).Send(8, 1, 123)
	b.Rank(1).Recv(8, 0, AnyTag)
	if err := b.Build().CheckMatched(); err != nil {
		t.Fatalf("wildcard recv should match: %v", err)
	}
}

func TestChain(t *testing.T) {
	b := NewBuilder(1)
	r := b.Rank(0)
	a, c, d := r.Calc(1), r.Calc(2), r.Calc(3)
	last := r.Chain(a, c, d)
	if last != d {
		t.Fatalf("Chain returned %d, want %d", last, d)
	}
	s := b.MustBuild()
	if !reflect.DeepEqual(s.Ranks[0].Requires.Of(int(c)), []int32{int32(a)}) {
		t.Fatalf("chain deps wrong: %v", s.Ranks[0].Requires)
	}
}

func TestTextRoundTrip(t *testing.T) {
	s := buildPaperExample()
	var buf bytes.Buffer
	if err := WriteText(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("parse: %v\ntext:\n%s", err, buf.String())
	}
	if !schedulesEqual(s, got) {
		t.Fatalf("text round trip mismatch:\n%s", buf.String())
	}
}

func TestParseTextPaperSyntax(t *testing.T) {
	// Hand-written schedule mirroring paper Fig 3 syntax.
	src := `
// example from the paper
num_ranks 2
rank 0 {
l1: calc 100
l2: calc 200
l3: calc 200 cpu 1
l4: send 10b to 1
l2 requires l1
l3 requires l1
l4 requires l2
l4 requires l3
}
rank 1 {
r: recv 10b from 0
}
`
	s, err := ParseText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRanks() != 2 || len(s.Ranks[0].Ops) != 4 {
		t.Fatalf("parsed wrong shape: %+v", s.ComputeStats())
	}
	if s.Ranks[0].Ops[2].CPU != 1 {
		t.Fatal("cpu attribute lost")
	}
	if len(s.Ranks[0].Requires.Of(3)) != 2 {
		t.Fatal("multi requires lost")
	}
}

func TestParseTextForwardLabel(t *testing.T) {
	// Dependencies may reference labels defined later in the block.
	src := `
num_ranks 1
rank 0 {
a: calc 5
a requires b
b: calc 1
}
`
	// a requires b creates a -> b which is acyclic (a after b).
	s, err := ParseText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Ranks[0].Requires.Of(0)) != 1 {
		t.Fatal("forward dependency lost")
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := []string{
		"rank 0 {\n}",                                          // missing num_ranks
		"num_ranks 1\nrank 5 {\n}",                             // rank out of range
		"num_ranks 1\nrank 0 {\nl1: calc 1",                    // unterminated block
		"num_ranks 1\nrank 0 {\nl1: frob 1\n}",                 // unknown op
		"num_ranks 1\nrank 0 {\nl1: calc 1\nl1: calc 2\n}",     // dup label
		"num_ranks 1\nrank 0 {\na requires nosuch\n}",          // unknown dep label
		"num_ranks 2\nrank 0 {\nl1: send 8b from 1\n}",         // wrong direction word
		"num_ranks 1\nnum_ranks 1",                             // duplicate header
		"num_ranks 1\nrank 0 {\nl1: calc 1\nl1 requires l1\n}", // self-cycle
	}
	for _, src := range cases {
		if _, err := ParseText(strings.NewReader(src)); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	s := buildPaperExample()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !schedulesEqual(s, got) {
		t.Fatal("binary round trip mismatch")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a goal file")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

// randomSchedule builds a random valid schedule for property tests.
func randomSchedule(rng *xrand.RNG, maxRanks, maxOps int) *Schedule {
	n := rng.Intn(maxRanks) + 1
	b := NewBuilder(n)
	for r := 0; r < n; r++ {
		rb := b.Rank(r)
		nops := rng.Intn(maxOps)
		ids := make([]OpID, 0, nops)
		for i := 0; i < nops; i++ {
			var id OpID
			switch rng.Intn(3) {
			case 0:
				id = rb.CalcOn(rng.Int63n(10000), int32(rng.Intn(4)))
			case 1:
				if n == 1 {
					id = rb.Calc(1)
					break
				}
				peer := rng.Intn(n - 1)
				if peer >= r {
					peer++
				}
				id = rb.SendOn(rng.Int63n(1<<20)+1, peer, int32(rng.Intn(8)), int32(rng.Intn(4)))
			default:
				if n == 1 {
					id = rb.Calc(1)
					break
				}
				peer := rng.Intn(n - 1)
				if peer >= r {
					peer++
				}
				id = rb.RecvOn(rng.Int63n(1<<20)+1, peer, int32(rng.Intn(8)), int32(rng.Intn(4)))
			}
			// add backward deps only => acyclic by construction
			if len(ids) > 0 && rng.Bool(0.5) {
				dep := ids[rng.Intn(len(ids))]
				if rng.Bool(0.8) {
					rb.Requires(id, dep)
				} else {
					rb.IRequires(id, dep)
				}
			}
			ids = append(ids, id)
		}
	}
	return b.Build()
}

func schedulesEqual(a, b *Schedule) bool {
	if a.NumRanks() != b.NumRanks() {
		return false
	}
	for r := range a.Ranks {
		x, y := &a.Ranks[r], &b.Ranks[r]
		if len(x.Ops) != len(y.Ops) {
			return false
		}
		for i := range x.Ops {
			if x.Ops[i] != y.Ops[i] {
				return false
			}
		}
		for i := range x.Ops {
			if !sameList(x.Requires.Of(i), y.Requires.Of(i)) || !sameList(x.IRequires.Of(i), y.IRequires.Of(i)) {
				return false
			}
		}
	}
	return true
}

func sameList(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Property: binary encode/decode is the identity on valid schedules, and
// the encoding is writeBinaryRef's.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := randomSchedule(xrand.New(seed), 6, 40)
		if s.Validate() != nil {
			return false
		}
		var buf bytes.Buffer
		if WriteBinary(&buf, s) != nil {
			return false
		}
		if want := refBytes(t, s); !bytes.Equal(buf.Bytes(), want) {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return schedulesEqual(s, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: text encode/parse is the identity on valid schedules.
func TestTextRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := randomSchedule(xrand.New(seed), 4, 25)
		var buf bytes.Buffer
		if WriteText(&buf, s) != nil {
			return false
		}
		got, err := ParseText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		return schedulesEqual(s, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: random generated schedules always validate (acyclic by
// construction) and stats totals are consistent.
func TestRandomScheduleInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		s := randomSchedule(xrand.New(seed), 8, 60)
		if s.Validate() != nil {
			return false
		}
		st := s.ComputeStats()
		return st.Ops == st.Sends+st.Recvs+st.Calcs && st.Ranks == s.NumRanks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	s := randomSchedule(xrand.New(1), 8, 200)
	var txt, bin bytes.Buffer
	if err := WriteText(&txt, s); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, s); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= txt.Len() {
		t.Fatalf("binary (%d B) not smaller than text (%d B)", bin.Len(), txt.Len())
	}
}

func TestCalcDuration(t *testing.T) {
	op := Op{Kind: KindCalc, Size: 100}
	if op.CalcDuration(1.0) != 100000 {
		t.Fatalf("CalcDuration(1.0)=%d ps", op.CalcDuration(1.0))
	}
	if op.CalcDuration(2.0) != 200000 {
		t.Fatalf("CalcDuration(2.0)=%d ps", op.CalcDuration(2.0))
	}
}

func TestKindString(t *testing.T) {
	if KindCalc.String() != "calc" || KindSend.String() != "send" || KindRecv.String() != "recv" {
		t.Fatal("Kind.String broken")
	}
}

func BenchmarkBinaryEncode(b *testing.B) {
	s := randomSchedule(xrand.New(2), 16, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryDecode(b *testing.B) {
	s := randomSchedule(xrand.New(2), 16, 500)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

package goal

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// arenaFixture builds a small schedule exercising every op attribute and
// both dependency kinds.
func arenaFixture() *Schedule {
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

func TestPackDepsSharesOneArena(t *testing.T) {
	in := [][]int32{nil, {0}, nil, {1, 2}, {0, 1, 3}}
	out := packDeps(in)
	if !reflect.DeepEqual(out, [][]int32{nil, {0}, nil, {1, 2}, {0, 1, 3}}) {
		t.Fatalf("packDeps changed values: %v", out)
	}
	// Views are capped: appending to one must not overwrite its neighbor.
	grown := append(out[1], 99)
	_ = grown
	if out[3][0] != 1 {
		t.Fatalf("append through view corrupted neighbor: %v", out[3])
	}
	// Mutating the input after packing must not affect the copy.
	in[3][0] = 77
	if out[3][0] != 1 {
		t.Fatal("packDeps aliased its input")
	}
}

func TestPackDepsEmpty(t *testing.T) {
	if out := packDeps(nil); out == nil || len(out) != 0 {
		t.Fatalf("packDeps(nil) = %#v, want empty non-nil", out)
	}
	out := packDeps([][]int32{nil, {}})
	if len(out) != 2 || out[0] != nil || out[1] != nil {
		t.Fatalf("empty lists must pack to nil views, got %#v", out)
	}
}

// TestParseBinaryRoundTrip: encode → decode reproduces the builder's
// arena-backed schedule exactly, through the byte-slice entry point and
// the reader one (which drains into it).
func TestParseBinaryRoundTrip(t *testing.T) {
	s := arenaFixture()
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
	s := arenaFixture()
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
	if err := WriteBinary(&buf, arenaFixture()); err != nil {
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

// TestBuildAllocsPerRank pins the arena layout: Build must cost a
// constant number of allocations per rank regardless of op count.
func TestBuildAllocsPerRank(t *testing.T) {
	b := NewBuilder(1)
	rb := b.Rank(0)
	prev := rb.Calc(1)
	for i := 0; i < 999; i++ {
		cur := rb.Calc(1)
		rb.Requires(cur, prev)
		prev = cur
	}
	allocs := testing.AllocsPerRun(10, func() {
		_ = b.Build()
	})
	// Schedule + Ranks + Ops + 2 dep tables + 1 arena (IRequires is all
	// empty, no arena) ≈ 6; leave headroom but stay far below the ~1000
	// a per-op copy would cost.
	if allocs > 12 {
		t.Fatalf("Build allocated %.0f times for a 1000-op rank; arena layout should need ~6", allocs)
	}
}

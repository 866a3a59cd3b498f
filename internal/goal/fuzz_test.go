package goal

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseText hardens the textual GOAL parser: whatever bytes arrive,
// parsing must return an error — never panic or over-allocate — and any
// schedule it accepts must survive a WriteText/ParseText round trip to the
// same binary encoding. The seed corpus mirrors the goal_test.go
// fixtures: paper syntax, dependencies, comments, every op attribute, and
// the common malformations the error tests cover. Text orders dependency
// lines any way it likes and the builder panics on a table's calls out of
// op order, so this guards that no accepted text reaches the builder out
// of order: the parser sorts each block's lines first.
func FuzzParseText(f *testing.F) {
	seeds := []string{
		// paper Fig 3 syntax (mirrors TestParseTextPaperSyntax)
		"num_ranks 2\nrank 0 {\nl1: calc 100\nl2: calc 200 cpu 1\nl3: send 10b to 1 tag 42\nl4: recv 10b from 1 tag 42 cpu 1\nl3 requires l1\nl4 irequires l2\n}\nrank 1 {\nl1: recv 10b from 0 tag 42\nl2: send 10b to 0 tag 42\nl2 requires l1\n}\n",
		// comments, blank lines, forward labels
		"// a comment\nnum_ranks 1\nrank 0 {\n\nl2 requires l1\nl1: calc 5\nl2: calc 7\n}\n",
		// dependency lines that name an older op after a newer one, which
		// the parser sorts by op before the builder sees them
		"num_ranks 1\nrank 0 {\nl1: calc 1\nl2: calc 2\nl3: calc 3\nl3 requires l1\nl2 requires l1\nl3 requires l2\nl2 irequires l1\n}\n",
		// a rank block given twice: the second block's ops follow the first's
		"num_ranks 2\nrank 0 {\nl1: calc 10\nl2: send 8b to 1 tag 1\nl2 requires l1\n}\nrank 1 {\nl1: recv 8b from 0 tag 1\n}\nrank 0 {\nl3 requires l1\nl1: calc 20\nl2: calc 30\nl3: calc 40\nl3 requires l2\nl2 requires l1\n}\n",
		// every dependency line before the labels it names
		"num_ranks 1\nrank 0 {\nl3 irequires l2\nl3 requires l1\nl2 requires l1\nl3 requires l2\nl1: calc 1\nl2: calc 2 cpu 1\nl3: calc 3\n}\n",
		// rendezvous-sized sends, wildcard-ish tags, nic attribute
		"num_ranks 2\nrank 0 {\nl1: send 300000b to 1 tag 0 nic 1\n}\nrank 1 {\nl1: recv 300000b from 0 tag 0\n}\n",
		// malformed inputs from TestParseTextErrors territory
		"num_ranks 0\n",
		"num_ranks 2\nnum_ranks 2\n",
		"rank 0 {\n}\n",
		"num_ranks 1\nrank 0 {\nl1: calc\n}\n",
		"num_ranks 1\nrank 0 {\nl1: send 5 to 0\n}\n",
		"num_ranks 1\nrank 0 {\nl1: calc 5\nl1: calc 6\n}\n",
		"num_ranks 1\nrank 0 {\nl1: calc 5\nl2 requires l9\n}\n",
		"num_ranks 1\nrank 0 {\nl1: calc 5\n",
		"num_ranks 99999999999999999999\n",
		"num_ranks 10000000000\n",
		"num_ranks 1\nrank 0 {\nl1: recv -10b from 0 tag -1\n}\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseText(strings.NewReader(src))
		if err != nil {
			return // rejected inputs just need to fail cleanly
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, s); err != nil {
			t.Fatalf("WriteText failed on accepted schedule: %v", err)
		}
		again, err := ParseText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected:\n%s\nerror: %v", buf.String(), err)
		}
		if a, b := binarySeed(s), binarySeed(again); !bytes.Equal(a, b) {
			t.Fatalf("round trip encodes to %x, want %x", b, a)
		}
	})
}

// binarySeed encodes a schedule for the binary-codec fuzz corpus,
// panicking on the (impossible) encoder failure of a valid fixture.
func binarySeed(s *Schedule) []byte {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzBinaryRoundTrip hardens the binary GOAL codec the same way the text
// fuzzer hardens the parser: arbitrary bytes must parse-or-fail cleanly —
// no panics, no over-allocation — and any schedule the decoder accepts
// must survive a parse -> encode -> parse round trip with the two decoded
// schedules structurally identical (every op, every dependency edge, in
// order), not merely stats-equal, and the encoding must be
// writeBinaryRef's byte for byte. The seed corpus covers every op kind
// and attribute the encoder's flag byte can express, both dependency
// kinds, multi-rank programs, and truncated/corrupted headers.
func FuzzBinaryRoundTrip(f *testing.F) {
	full := NewBuilder(3)
	r0 := full.Rank(0)
	c := r0.Calc(100)
	cc := r0.CalcOn(250, 2) // cpu flag on a calc
	s1 := r0.Send(64, 1, 0) // tagless send
	s2 := r0.SendOn(300000, 2, 42, 1)
	r0.Requires(s2, c, s1)
	r0.IRequires(s2, cc)
	r1 := full.Rank(1)
	r1.Recv(64, 0, 0)
	r2 := full.Rank(2)
	rv := r2.RecvOn(300000, 0, 42, 3)
	w := r2.Calc(7)
	r2.Requires(w, rv)
	wild := NewBuilder(2)
	wild.Rank(0).Send(8, 1, 5)
	wild.Rank(1).Recv(8, 0, AnyTag) // negative tag exercises the svarint path

	seeds := [][]byte{
		binarySeed(full.MustBuild()),
		binarySeed(wild.MustBuild()),
		binarySeed(&Schedule{Ranks: make([]RankProgram, 1)}), // empty rank program
		[]byte("GOALB1\n"),                                   // magic only
		[]byte("GOALB1\n\x01\x01"),                           // truncated op
		[]byte("GOALB2\n\x01"),                               // wrong magic
		[]byte("num_ranks 1\n"),                              // text format fed to the binary reader
		{0x47, 0x4f, 0x41, 0x4c},                             // partial magic
		append([]byte("GOALB1\n"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), // absurd rank count
		wideSend(1<<32+1, 1<<32-3, 0), // peer and cpu wider than 32 bits
		wideSend(1, 2, 1<<32+5),       // tag wider than 32 bits
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := ParseBinary(raw)
		if err != nil {
			return // rejected inputs just need to fail cleanly
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, s); err != nil {
			t.Fatalf("WriteBinary failed on accepted schedule: %v", err)
		}
		again, err := ParseBinary(buf.Bytes())
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("round trip changed the schedule:\nfirst:  %+v\nsecond: %+v", s, again)
		}
		// Re-encoding the reparsed schedule must be byte-stable: the codec
		// has one canonical encoding per schedule.
		var buf2 bytes.Buffer
		if err := WriteBinary(&buf2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("encoding not canonical: second encode differs from first")
		}
		if want := refBytes(t, s); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("WriteBinary wrote %x, the reference encoder %x", buf.Bytes(), want)
		}
	})
}

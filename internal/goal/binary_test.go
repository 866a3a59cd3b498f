package goal

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// writeBinaryRef is the encoder WriteBinary replaced, kept as its
// reference: the same format written op by op through a bufio.Writer of
// its own, which cost a 64 KiB buffer per call. The round-trip property
// and fuzz tests require WriteBinary to produce its bytes exactly.
func writeBinaryRef(w io.Writer, s *Schedule) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putU := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		bw.Write(buf[:n])
	}
	putS := func(v int64) {
		n := binary.PutVarint(buf[:], v)
		bw.Write(buf[:n])
	}
	putU(uint64(s.NumRanks()))
	for r := range s.Ranks {
		rp := &s.Ranks[r]
		putU(uint64(len(rp.Ops)))
		for i := range rp.Ops {
			op := &rp.Ops[i]
			flags := byte(op.Kind)
			if op.Tag != 0 {
				flags |= 1 << 2
			}
			if op.CPU != 0 {
				flags |= 1 << 3
			}
			bw.WriteByte(flags)
			putU(uint64(op.Size))
			if op.Kind != KindCalc {
				putU(uint64(op.Peer))
				if flags&(1<<2) != 0 {
					putS(int64(op.Tag))
				}
			}
			if flags&(1<<3) != 0 {
				putU(uint64(op.CPU))
			}
		}
		writeDeps := func(deps Deps) {
			for i := 0; i < deps.Len(); i++ {
				putU(uint64(len(deps.Of(i))))
				for _, d := range deps.Of(i) {
					putS(int64(int32(i) - d))
				}
			}
		}
		writeDeps(rp.Requires)
		writeDeps(rp.IRequires)
	}
	return bw.Flush()
}

// refBytes returns writeBinaryRef's encoding of s.
func refBytes(t testing.TB, s *Schedule) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeBinaryRef(&b, s); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestWriteBinaryAllocs: once a call has left a chunk in the stock,
// encoding a schedule into a hash allocates nothing, which is what the
// service's fingerprint of every request does, and a collection between
// calls does not take the chunk away.
func TestWriteBinaryAllocs(t *testing.T) {
	s := depsFixture()
	h := sha256.New()
	if err := WriteBinary(h, s); err != nil {
		t.Fatal(err)
	}
	encode := func() {
		h.Reset()
		_ = WriteBinary(h, s)
	}
	if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
		t.Fatalf("WriteBinary allocated %.1f times per call", allocs)
	}
	// testing.AllocsPerRun makes a call before it counts, so the first
	// call after the collections is counted here. The least of five rounds
	// is taken: what other tests left to the collector (cleanups,
	// finalizers) may allocate on goroutines of its own during one.
	least, allocated := uint64(math.MaxUint64), uint64(0)
	for range 5 {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		encode()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n < least {
			least, allocated = n, after.TotalAlloc-before.TotalAlloc
		}
	}
	if least != 0 {
		t.Fatalf("WriteBinary allocated %d times (%d B) in a call after two collections", least, allocated)
	}
}

// chunkCounter counts the writes it takes and fails the one numbered
// failAt (from 1; 0 never fails).
type chunkCounter struct {
	bytes.Buffer
	writes, failAt int
}

var errWriteFailed = errors.New("write failed")

func (c *chunkCounter) Write(p []byte) (int, error) {
	if c.writes++; c.writes == c.failAt {
		return 0, errWriteFailed
	}
	return c.Buffer.Write(p)
}

// TestWriteBinaryChunks: a schedule several chunks long encodes to the
// reference's bytes, written out a chunk at a time, and a writer's error
// ends the encoding and is returned whichever chunk it fails on.
func TestWriteBinaryChunks(t *testing.T) {
	b := NewBuilder(2)
	for r := 0; r < 2; r++ {
		rb := b.Rank(r)
		prev := rb.Send(1<<40, 1-r, -7)
		for i := 1; i < 60000; i++ {
			op := rb.CalcOn(int64(i)<<20, int32(i%3))
			rb.Requires(op, prev)
			if i%5 == 0 {
				rb.IRequires(op, prev-1)
			}
			prev = op
		}
		rb.Recv(1<<40, 1-r, -7)
	}
	s := b.MustBuild()
	want := refBytes(t, s)
	var c chunkCounter
	if err := WriteBinary(&c, s); err != nil {
		t.Fatal(err)
	}
	if min := len(want) / encodeChunk; c.writes <= min || !bytes.Equal(c.Bytes(), want) {
		t.Fatalf("%d writes of %d bytes, want more than %d writes of the reference's %d", c.writes, c.Len(), min, len(want))
	}
	for failAt := 1; failAt <= c.writes; failAt++ {
		if err := WriteBinary(&chunkCounter{failAt: failAt}, s); !errors.Is(err, errWriteFailed) {
			t.Fatalf("write %d failing: WriteBinary = %v", failAt, err)
		}
	}
}

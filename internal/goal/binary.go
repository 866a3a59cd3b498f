package goal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"atlahs/internal/registry"
)

// Binary GOAL format ("GOAL schedules are stored and executed in a compact
// binary format", paper §2.1). The encoding is varint-based:
//
//	magic   GOALB1 and a newline (binaryMagic)
//	uvarint nranks
//	per rank:
//	  uvarint nops
//	  per op:
//	    byte   kind | flags (hasTag<<2, hasCPU<<3)
//	    uvarint size
//	    send/recv: uvarint peer, [svarint tag], [uvarint cpu]
//	    calc:      [uvarint cpu]
//	  per op: uvarint ndeps,  svarint delta(i - dep) for requires
//	  per op: uvarint nideps, svarint delta(i - dep) for irequires
//
// Dependency targets are encoded as deltas from the dependent op index,
// which are small for the chain-heavy graphs trace conversion produces —
// this is what makes GOAL files several times smaller than Chakra ETs
// (paper Fig 9). The two dependency sections of a rank are also the form
// its tables are held and run in (Deps), so WriteBinary writes them as
// they are.

const binaryMagic = "GOALB1\n"

// encodeChunk is the size of the chunks WriteBinary encodes into, and
// chunkSlack the most one op or one dependency edge encodes to (a flag
// byte and four varints): a chunk is written out once fewer than that
// many bytes are left in it.
const (
	encodeChunk = 1 << 16
	chunkSlack  = 1 + 4*binary.MaxVarintLen64
)

// chunks keeps WriteBinary's chunks between calls, so that a caller
// encoding schedule after schedule (the service digests one per request)
// does not allocate a buffer per call.
var chunks registry.Stock[[]byte]

// WriteBinary encodes the schedule in compact binary format.
func WriteBinary(w io.Writer, s *Schedule) error {
	chunk := chunks.Take()
	if *chunk == nil {
		*chunk = make([]byte, 0, encodeChunk)
	}
	e := binaryEncoder{w: w, buf: (*chunk)[:0]}
	err := e.schedule(s)
	*chunk = e.buf[:0]
	chunks.Put(chunk)
	return err
}

// binaryEncoder appends a schedule's encoding to buf, writing buf out to
// w and starting over whenever room finds it nearly full.
type binaryEncoder struct {
	w   io.Writer
	buf []byte
}

// schedule encodes s and writes out what is left in buf.
func (e *binaryEncoder) schedule(s *Schedule) error {
	e.buf = append(e.buf, binaryMagic...)
	e.buf = binary.AppendUvarint(e.buf, uint64(s.NumRanks()))
	for r := range s.Ranks {
		rp := &s.Ranks[r]
		if err := e.room(); err != nil {
			return err
		}
		e.buf = binary.AppendUvarint(e.buf, uint64(rp.Len()))
		// OpCursor's walk, in locals: a cursor's fields live in memory,
		// and every fingerprint runs this loop.
		ops, next := rp.ops, rp.sideStart()
		for i := range rp.n {
			if err := e.room(); err != nil {
				return err
			}
			op, k := Op{}, 0
			if s := shortAt(ops, i); s < shortSide {
				op = calcOf(s)
			} else {
				op, k = expandSide(s, ops, next)
			}
			next += k
			kind, tag, cpu := op.Kind(), op.Tag(), op.CPU()
			flags := byte(kind)
			if tag != 0 {
				flags |= 1 << 2
			}
			if cpu != 0 {
				flags |= 1 << 3
			}
			e.buf = append(e.buf, flags)
			e.buf = binary.AppendUvarint(e.buf, uint64(op.Size()))
			if kind != KindCalc {
				e.buf = binary.AppendUvarint(e.buf, uint64(op.Peer()))
				if flags&(1<<2) != 0 {
					e.buf = binary.AppendVarint(e.buf, int64(tag))
				}
			}
			if flags&(1<<3) != 0 {
				e.buf = binary.AppendUvarint(e.buf, uint64(cpu))
			}
		}
		if err := e.deps(rp.Requires); err != nil {
			return err
		}
		if err := e.deps(rp.IRequires); err != nil {
			return err
		}
	}
	_, err := e.w.Write(e.buf)
	return err
}

// room makes sure at least chunkSlack bytes are free in buf.
func (e *binaryEncoder) room() error {
	if cap(e.buf)-len(e.buf) >= chunkSlack {
		return nil
	}
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

// deps writes one dependency table: its bytes as they are held, or one
// zero count per op for a table without edges.
func (e *binaryEncoder) deps(d Deps) error {
	if d.enc == "" {
		for left := d.Len(); left > 0; {
			if err := e.room(); err != nil {
				return err
			}
			k := min(left, cap(e.buf)-len(e.buf))
			e.buf = e.buf[:len(e.buf)+k]
			clear(e.buf[len(e.buf)-k:])
			left -= k
		}
		return nil
	}
	for rest := d.enc; len(rest) > 0; {
		if err := e.room(); err != nil {
			return err
		}
		k := copy(e.buf[len(e.buf):cap(e.buf)], rest)
		e.buf = e.buf[:len(e.buf)+k]
		rest = rest[k:]
	}
	return nil
}

// IsBinary reports whether data starts with the binary GOAL magic — the
// one test that tells the two serialisations apart, shared by Decode and
// the "goal" frontend's sniffer.
func IsBinary(data []byte) bool { return bytes.HasPrefix(data, []byte(binaryMagic)) }

// Decode parses a serialised schedule held in memory, binary or textual
// (told apart by IsBinary), and validates it. Binary input is decoded in
// place by ParseBinary: the caller's slice is walked, never copied.
func Decode(data []byte) (*Schedule, error) {
	if IsBinary(data) {
		return ParseBinary(data)
	}
	return ParseText(bytes.NewReader(data))
}

// ReadBinary decodes a schedule from compact binary format and validates
// it. There is one binary decoder, ParseBinary, and it needs the whole
// input to bound declared counts by the bytes that remain, so a reader is
// drained first; callers that already hold the bytes call ParseBinary (or
// Decode) directly and skip the copy.
func ReadBinary(r io.Reader) (*Schedule, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("goal: reading binary schedule: %w", err)
	}
	return ParseBinary(data)
}

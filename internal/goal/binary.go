package goal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
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
// (paper Fig 9).

const binaryMagic = "GOALB1\n"

// WriteBinary encodes the schedule in compact binary format.
func WriteBinary(w io.Writer, s *Schedule) error {
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

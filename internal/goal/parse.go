package goal

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
)

// The binary decoder. ParseBinary walks one in-memory buffer with a
// cursor — no io.Reader round trips, no intermediate buffering — and
// sizes every allocation exactly. Declared counts are attacker-controlled
// in a malformed (or hostile) file, so each is admitted only after
// checking it fits in the bytes that remain (every op costs at least two
// encoded bytes, every dependency at least one): a hostile header cannot
// claim gigabytes up front (found by FuzzBinaryRoundTrip), and a truthful
// one lets ops and dependency tables be allocated once at final size.
// Every ingestion path ends here — sim.ResolveSpec, the frontend
// registry, atlahsd's workload resolution and ReadBinary — because all of
// them hold the full file in memory anyway.

// byteCursor decodes varints from a byte slice in place.
type byteCursor struct {
	data []byte
	off  int
}

func (c *byteCursor) remaining() int { return len(c.data) - c.off }

func (c *byteCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		if n == 0 {
			return 0, fmt.Errorf("truncated varint at offset %d", c.off)
		}
		return 0, fmt.Errorf("varint overflows 64 bits at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *byteCursor) varint() (int64, error) {
	v, n := binary.Varint(c.data[c.off:])
	if n <= 0 {
		if n == 0 {
			return 0, fmt.Errorf("truncated varint at offset %d", c.off)
		}
		return 0, fmt.Errorf("varint overflows 64 bits at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

// minimal reports whether the varint that ended at the cursor and began
// at at is in its shortest form: one byte, or a last byte that is not 0.
func (c *byteCursor) minimal(at int) bool { return c.off-at == 1 || c.data[c.off-1] != 0 }

func (c *byteCursor) byte() (byte, error) {
	if c.off >= len(c.data) {
		return 0, fmt.Errorf("unexpected end of input at offset %d", c.off)
	}
	b := c.data[c.off]
	c.off++
	return b, nil
}

// ParseBinary decodes a schedule from an in-memory compact binary buffer
// and validates it, allocating each rank's ops and dependency tables
// exactly once. data is read in place and not retained. A value an Op
// cannot hold (see Op) is refused where it is read, naming its field.
func ParseBinary(data []byte) (*Schedule, error) {
	if !IsBinary(data) {
		n := len(data)
		if n > len(binaryMagic) {
			n = len(binaryMagic)
		}
		return nil, fmt.Errorf("goal: bad magic %q (not a binary GOAL file)", data[:n])
	}
	c := &byteCursor{data: data, off: len(binaryMagic)}
	nranks, err := c.uvarint()
	if err != nil {
		return nil, fmt.Errorf("goal: reading rank count: %w", err)
	}
	if nranks == 0 || nranks > 1<<24 {
		return nil, fmt.Errorf("goal: implausible rank count %d", nranks)
	}
	// Each rank contributes at least one byte (its op count), so a count
	// beyond the remaining input is provably corrupt — reject before
	// allocating for it.
	if nranks > uint64(c.remaining()) {
		return nil, fmt.Errorf("goal: rank count %d exceeds remaining input (%d bytes)", nranks, c.remaining())
	}
	s := &Schedule{Ranks: make([]RankProgram, nranks)}
	// Each rank's ops are gathered in kept scratch and copied out into its
	// one array at its exact length (packRank).
	scratch := takeOps()
	defer putOps(scratch)
	for r := 0; r < int(nranks); r++ {
		rp := &s.Ranks[r]
		nops, err := c.uvarint()
		if err != nil {
			return nil, fmt.Errorf("goal: rank %d op count: %w", r, err)
		}
		// flags + size take at least two bytes per op.
		if nops > uint64(c.remaining())/2 {
			return nil, fmt.Errorf("goal: rank %d: op count %d exceeds remaining input (%d bytes)", r, nops, c.remaining())
		}
		ops := rankOps{shorts: slices.Grow(scratch.shorts[:0], int(nops)), side: scratch.side[:0]}
		for i := range int(nops) {
			flags, err := c.byte()
			if err != nil {
				return nil, fmt.Errorf("goal: rank %d op %d: %w", r, i, err)
			}
			kind := Kind(flags & 0x3)
			if kind > KindRecv {
				return nil, fmt.Errorf("goal: rank %d op %d kind: %w", r, i, fieldKind.err(kind, int64(kind)))
			}
			msg := kind != KindCalc
			maxSize, maxCPU := uint64(math.MaxInt64), uint64(math.MaxInt32)
			if msg {
				maxSize, maxCPU = MaxMessageBytes, maxMessageCPU
			}
			sz, err := c.uvarint()
			if err != nil || sz > maxSize {
				if err == nil {
					err = rangeErr(kind, fieldSize, sz)
				}
				return nil, fmt.Errorf("goal: rank %d op %d size: %w", r, i, err)
			}
			peer, tag, cpu := int32(-1), int32(0), uint64(0)
			if msg {
				p, err := c.uvarint()
				if err == nil && p > math.MaxInt32 {
					err = fmt.Errorf("%d out of range", p)
				}
				if err != nil {
					return nil, fmt.Errorf("goal: rank %d op %d peer: %w", r, i, err)
				}
				peer = int32(p)
				if flags&(1<<2) != 0 {
					t, err := c.varint()
					if err == nil && int64(int32(t)) != t {
						err = fmt.Errorf("%d out of range", t)
					}
					if err != nil {
						return nil, fmt.Errorf("goal: rank %d op %d tag: %w", r, i, err)
					}
					tag = int32(t)
				}
			}
			if flags&(1<<3) != 0 {
				cpu, err = c.uvarint()
				if err != nil || cpu > maxCPU {
					if err == nil {
						err = rangeErr(kind, fieldCPU, cpu)
					}
					return nil, fmt.Errorf("goal: rank %d op %d cpu: %w", r, i, err)
				}
			}
			ops.add(pack(kind, int64(sz), peer, tag, int32(cpu)))
		}
		scratch.shorts, scratch.side = ops.shorts[:0], ops.side[:0]
		rp.ops, rp.n = packRank(ops.shorts, ops.side), int(nops)
		if rp.Requires, err = parseDeps(c, int(nops)); err != nil {
			return nil, fmt.Errorf("goal: rank %d requires: %w", r, err)
		}
		if rp.IRequires, err = parseDeps(c, int(nops)); err != nil {
			return nil, fmt.Errorf("goal: rank %d irequires: %w", r, err)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// rangeErr describes a decoded value v of field f that an op of kind k
// cannot hold: beyond int64 (a size) or int32 (a cpu), or beyond a
// message's bound.
func rangeErr(k Kind, f opField, v uint64) error {
	if v > math.MaxInt64 || f == fieldCPU && v > math.MaxInt32 {
		return fmt.Errorf("%d out of range", v)
	}
	return f.err(k, int64(v))
}

// parseDeps decodes one dependency table. One pass over its section
// bounds and counts it, and checks that every varint is minimal: then the
// section is the table's own encoding, and it is copied once, at its exact
// length. A section with a longer form of some value than it needs (which
// WriteBinary never writes, but a decoder accepts) is encoded again in
// the canonical form, so a table's bytes, and every encoding and
// fingerprint of the schedule, are the same however its file spelt it.
func parseDeps(c *byteCursor, nops int) (Deps, error) {
	mark := c.off
	total := 0
	minimal := true
	for i := 0; i < nops; i++ {
		at := c.off
		n, err := c.uvarint()
		if err != nil {
			return Deps{}, err
		}
		minimal = minimal && c.minimal(at)
		if n > uint64(c.remaining()) {
			return Deps{}, fmt.Errorf("op %d: dependency count %d exceeds remaining input (%d bytes)", i, n, c.remaining())
		}
		total += int(n)
		for j := uint64(0); j < n; j++ {
			at := c.off
			delta, err := c.varint()
			if err != nil {
				return Deps{}, err
			}
			if int64(int32(delta)) != delta {
				return Deps{}, fmt.Errorf("op %d: dependency delta %d out of range", i, delta)
			}
			minimal = minimal && c.minimal(at)
		}
	}
	if c.off-mark > math.MaxInt32 {
		return Deps{}, fmt.Errorf("%d bytes of dependencies exceed a table's 32-bit offsets", c.off-mark)
	}
	d := Deps{n: int32(nops), edges: int32(total)}
	switch {
	case total == 0:
	case minimal:
		d.enc = string(c.data[mark:c.off])
	default:
		d.enc = canonical(c.data[mark:c.off])
	}
	return d, nil
}

// canonical re-encodes a dependency section checked by parseDeps with
// every varint in its shortest form. A zigzag varint is the uvarint of
// its zigzag value, so the section is a run of uvarints, each re-encoded
// as it is.
func canonical(sec []byte) string {
	var tmp [binary.MaxVarintLen64]byte
	size := 0
	for c := (byteCursor{data: sec}); c.remaining() > 0; {
		u, _ := c.uvarint()
		size += len(binary.AppendUvarint(tmp[:0], u))
	}
	var out strings.Builder
	out.Grow(size)
	for c := (byteCursor{data: sec}); c.remaining() > 0; {
		u, _ := c.uvarint()
		out.Write(binary.AppendUvarint(tmp[:0], u))
	}
	return out.String()
}

package goal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"atlahs/internal/xrand"
)

// refOp is the 24-byte struct Op replaced, one field per value, kept as
// the reference the packed form is held to.
type refOp struct {
	Kind Kind
	CPU  int32
	Peer int32
	Tag  int32
	Size int64
}

// fieldsOf reads an op's five fields back.
func fieldsOf(o Op) refOp {
	return refOp{Kind: o.Kind(), CPU: o.CPU(), Peer: o.Peer(), Tag: o.Tag(), Size: o.Size()}
}

// refusedBefore reports whether the 24-byte layout's Validate refused op
// as op 0 of rank 0 in a 2-rank schedule.
func (op refOp) refusedBefore() bool {
	return op.Size < 0 || op.CPU < 0 || op.Kind > KindRecv ||
		op.Kind != KindCalc && op.Peer != 1
}

// beyondPacked reports whether op lies beyond the ranges only the packed
// layout has: a message over 1 TiB or on a cpu above maxMessageCPU.
func (op refOp) beyondPacked() bool {
	return op.Kind != KindCalc && (op.Size > MaxMessageBytes || op.CPU > maxMessageCPU)
}

func TestOpSize(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n != 16 {
		t.Fatalf("an Op is %d bytes, want 16", n)
	}
}

// TestRankTypesDoNotGrow: a cold schedule costs one RankBuilder per rank
// to build and one RankProgram per rank to hold. A RankProgram is one
// array, an op count and two tables: 80 bytes on a 64-bit platform (104
// with 24-byte ops, 96 with first words and a side array). A RankBuilder
// is a handle of its rank, the spent flag and three pointers to scratch:
// 32 bytes (168 when it held its ops' and tables' state itself).
func TestRankTypesDoNotGrow(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if n := unsafe.Sizeof(RankBuilder{}); n > 32 {
		t.Errorf("a RankBuilder is %d bytes, want at most 32", n)
	}
	if n := unsafe.Sizeof(RankProgram{}); n != 80 {
		t.Errorf("a RankProgram is %d bytes, want 80", n)
	}
}

// decodings returns what each way into a schedule makes of op as op 0 of
// rank 0 in a 2-rank schedule: Builder + Validate, ParseBinary of its
// encoding and, for the three kinds, ParseText.
func decodings(op refOp) map[string]func() (*Schedule, error) {
	ways := map[string]func() (*Schedule, error){
		"binary": func() (*Schedule, error) {
			raw := binary.AppendUvarint([]byte(binaryMagic), 2)
			raw = appendRefOp(append(raw, 1), op)
			raw = append(raw, 0, 0, 0) // rank 0's empty tables, rank 1's op count
			return ParseBinary(raw)
		},
	}
	if op.Kind > KindRecv {
		return ways
	}
	ways["builder"] = func() (*Schedule, error) {
		b := NewBuilder(2)
		rb := b.Rank(0)
		switch op.Kind {
		case KindCalc:
			rb.CalcOn(op.Size, op.CPU)
		case KindSend:
			rb.SendOn(op.Size, int(op.Peer), op.Tag, op.CPU)
		case KindRecv:
			rb.RecvOn(op.Size, int(op.Peer), op.Tag, op.CPU)
		}
		s := b.Build()
		return s, s.Validate()
	}
	ways["text"] = func() (*Schedule, error) {
		line := fmt.Sprintf("calc %d", op.Size)
		switch op.Kind {
		case KindSend:
			line = fmt.Sprintf("send %db to %d tag %d", op.Size, op.Peer, op.Tag)
		case KindRecv:
			line = fmt.Sprintf("recv %db from %d tag %d", op.Size, op.Peer, op.Tag)
		}
		src := fmt.Sprintf("num_ranks 2\nrank 0 {\nl1: %s cpu %d\n}\n", line, op.CPU)
		return ParseText(strings.NewReader(src))
	}
	return ways
}

// checkDecodings requires every way in to refuse op exactly when the
// 24-byte layout refused it or it lies beyond the packed ranges, and
// otherwise to read all five fields back.
func checkDecodings(t *testing.T, op refOp) {
	t.Helper()
	if op.Kind == KindCalc {
		op.Peer, op.Tag = -1, 0 // what a calc always held
	}
	refuse := op.refusedBefore() || op.beyondPacked()
	for way, decode := range decodings(op) {
		s, err := decode()
		switch {
		case refuse && err == nil:
			t.Fatalf("%s accepted %+v", way, op)
		case !refuse && err != nil:
			t.Fatalf("%s refused %+v: %v", way, op, err)
		case err == nil && fieldsOf(s.Ranks[0].Op(0)) != op:
			t.Fatalf("%s read %+v back as %+v", way, op, fieldsOf(s.Ranks[0].Op(0)))
		}
	}
}

// FuzzOpMatchesFields holds the 16-byte Op to the 24-byte struct it
// replaced: for any kind, cpu, peer, tag and size, a packed op reads the
// same five fields back, or is refused exactly where the packed ranges
// end. The packing alone is checked at every width; the Builder with
// Validate, ParseBinary and ParseText are checked on a 2-rank schedule,
// where they must also refuse whatever the 24-byte layout's Validate did.
func FuzzOpMatchesFields(f *testing.F) {
	for _, op := range []refOp{
		{KindCalc, 0, -1, 0, 100},
		{KindCalc, 3, -1, 0, math.MaxInt64},
		{KindCalc, -1, -1, 0, 5},
		{KindCalc, 0, -1, 0, -5},
		{KindSend, 0, 1, 42, 64},
		{KindSend, maxMessageCPU, 1, math.MinInt32, MaxMessageBytes},
		{KindSend, maxMessageCPU + 1, 1, 0, 8},
		{KindSend, 0, 1, 0, MaxMessageBytes + 1},
		{KindSend, -1, 1, 0, 8},
		{KindRecv, 2, 1, AnyTag, 8192},
		{KindRecv, 0, math.MaxInt32, math.MaxInt32, 1},
		{KindRecv, 0, 1, 0, -1},
		{3, 0, 1, 0, 8},
	} {
		f.Add(uint8(op.Kind), op.CPU, op.Peer, op.Tag, op.Size)
	}
	f.Fuzz(func(t *testing.T, kind uint8, cpu, peer, tag int32, size int64) {
		op := refOp{Kind: Kind(kind % 4), CPU: cpu, Peer: peer, Tag: tag, Size: size}
		packed := makeOp(op.Kind, op.Size, op.Peer, op.Tag, op.CPU)
		if op.Kind == KindCalc {
			op.Peer, op.Tag = -1, 0
		}
		refuse := op.Size < 0 || op.Kind > KindRecv || op.beyondPacked() || op.Kind != KindCalc && op.CPU < 0
		if refuse == packed.held() {
			t.Fatalf("%+v packed as held %v, want refused %v", op, packed.held(), refuse)
		}
		if !refuse && fieldsOf(packed) != op {
			t.Fatalf("%+v packed reads back %+v", op, fieldsOf(packed))
		}
		checkDecodings(t, op)
	})
}

// TestMessageBoundsRefused: a message over 1 TiB and a message on a cpu
// of 2^21 − 1 or more are refused by the Builder with Validate, by
// ParseBinary and by ParseText, each error naming the field; the largest
// message on the largest cpu is accepted.
func TestMessageBoundsRefused(t *testing.T) {
	for _, tc := range []struct {
		op    refOp
		field string
	}{
		{refOp{KindSend, 0, 1, 0, MaxMessageBytes + 1}, "size 1099511627777 exceeds the 1099511627776-byte message bound"},
		{refOp{KindRecv, 0, 1, 0, math.MaxInt64}, "recv size 9223372036854775807 exceeds"},
		{refOp{KindSend, 1<<21 - 1, 1, 0, 8}, "send cpu 2097151 exceeds the largest message cpu 2097150"},
		{refOp{KindRecv, math.MaxInt32, 1, 0, 8}, "recv cpu 2147483647 exceeds"},
	} {
		for way, decode := range decodings(tc.op) {
			if _, err := decode(); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s of %+v: %v, want an error with %q", way, tc.op, err, tc.field)
			}
		}
	}
	checkDecodings(t, refOp{KindSend, maxMessageCPU, 1, 7, MaxMessageBytes})
	checkDecodings(t, refOp{KindRecv, maxMessageCPU, 1, 7, MaxMessageBytes})
}

// TestUnheldOpsKeepValidateOrder: an op the packed form cannot hold
// reports, from Validate, the error the 24-byte layout's Validate gave
// for the same values, negative size before negative cpu.
func TestUnheldOpsKeepValidateOrder(t *testing.T) {
	for _, tc := range []struct {
		build func(rb *RankBuilder)
		want  string
	}{
		{func(rb *RankBuilder) { rb.CalcOn(-5, -1) }, "goal: rank 0 op 0: negative size -5"},
		{func(rb *RankBuilder) { rb.CalcOn(5, -1) }, "goal: rank 0 op 0: negative cpu -1"},
		{func(rb *RankBuilder) { rb.SendOn(-5, 1, 0, -1) }, "goal: rank 0 op 0: negative size -5"},
		{func(rb *RankBuilder) { rb.SendOn(1<<41, 1, 0, -1) }, "goal: rank 0 op 0: negative cpu -1"},
		{func(rb *RankBuilder) { rb.RecvOn(1<<41, 1, 0, 1<<21) }, "goal: rank 0 op 0: recv size 2199023255552 exceeds"},
	} {
		b := NewBuilder(2)
		tc.build(b.Rank(0))
		if err := b.Build().Validate(); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("Validate = %v, want %q", err, tc.want)
		}
	}
	// the binary decoder names the field where it reads it
	raw := binary.AppendUvarint([]byte(binaryMagic), 2)
	raw = append(raw, 1, 3, 8, 1, 0, 0, 0)
	if _, err := ParseBinary(raw); err == nil || err.Error() != "goal: rank 0 op 0 kind: unknown kind 3" {
		t.Errorf("kind 3: %v", err)
	}
}

// refRank is the layout RankProgram replaced, kept as the reference its
// storage is held to: one 16-byte Op per op, in one array.
type refRank []Op

// drawRank draws a rank of nops ops for rank r of nranks, in op order.
// shape picks what the rank may hold beyond short calcs and messages (see
// rankOps.add): bit 0 no messages, bit 1 calcs of 2^42 ns and more (up to
// 2^63 − 1) and messages up to 1 TiB, bit 2 ops on a negative or large
// cpu, bit 3 ops in the reserved form, bit 6 sizes and cpus either side
// of every short-form width, and bit 7 only long ops. A rank drawn with
// bit 0 alone (or with bits 4 and 5 too) keeps no side words. Messages
// name peer 0 and tag 0 often. (FuzzProgramMatchesOps reads bit 4 as a
// dependency chain and bit 5 as an exact Grow.)
func drawRank(rng *xrand.RNG, r, nranks, nops int, shape uint8) refRank {
	ops := make(refRank, nops)
	for i := range ops {
		cpu := int32(rng.Intn(4))
		if shape&4 != 0 && rng.Intn(8) == 0 {
			cpu = maxMessageCPU
		}
		if shape&64 != 0 && rng.Intn(2) == 0 {
			cpu = shortCPUs - 1 + int32(rng.Intn(2))
		}
		k := Kind(rng.Intn(3))
		if shape&1 != 0 || nranks < 2 {
			k = KindCalc
		}
		size := rng.Int63n(1 << 20)
		switch {
		case shape&64 != 0 && rng.Intn(2) == 0 && k == KindCalc:
			size = calcSizeShort + rng.Int63n(2)
		case shape&64 != 0 && rng.Intn(2) == 0:
			size = msgSizeShort + rng.Int63n(2)
		}
		switch {
		case shape&8 != 0 && rng.Intn(8) == 0:
			ops[i] = makeOp([]Kind{KindCalc, KindSend, KindRecv, 3}[rng.Intn(4)], -1-rng.Int63n(1<<40), 1, 0, cpu)
			continue
		case k == KindCalc:
			if shape&2 != 0 && rng.Intn(3) == 0 {
				size = []int64{calcSizeMask, calcSizeMask + 1, math.MaxInt64, int64(rng.Uint64() >> 1)}[rng.Intn(4)]
			}
			if shape&4 != 0 && rng.Intn(3) == 0 {
				cpu = []int32{-1, math.MinInt32, maxMessageCPU + 1, math.MaxInt32, int32(rng.Uint64())}[rng.Intn(5)]
			}
			if shape&128 != 0 && cpu >= 0 && cpu < shortCPUs && size <= calcSizeShort {
				if rng.Intn(2) == 0 {
					size += calcSizeShort + 1
				} else {
					cpu += shortCPUs
				}
			}
			ops[i] = makeOp(KindCalc, size, -1, 0, cpu)
			continue
		case shape&2 != 0 && rng.Intn(3) == 0:
			size = rng.Int63n(MaxMessageBytes + 1)
		}
		if shape&128 != 0 && cpu < shortCPUs && size <= msgSizeShort {
			if rng.Intn(2) == 0 {
				size += msgSizeShort + 1
			} else {
				cpu += shortCPUs
			}
		}
		peer := (r + 1 + rng.Intn(nranks-1)) % nranks
		if r != 0 && rng.Intn(2) == 0 {
			peer = 0
		}
		var tag int32
		if rng.Intn(2) == 0 {
			tag = []int32{AnyTag, 7, math.MaxInt32, math.MinInt32}[rng.Intn(4)]
		}
		ops[i] = makeOp(k, size, int32(peer), tag, cpu)
	}
	return ops
}

// build adds ref's ops to rb through the public methods, each requiring
// the op before it when chain is set.
func (ref refRank) build(rb *RankBuilder, chain bool) {
	for i, op := range ref {
		var id OpID
		switch {
		case !op.held():
			id = rb.add(op)
		case op.Kind() == KindCalc:
			id = rb.CalcOn(op.Size(), op.CPU())
		case op.Kind() == KindSend:
			id = rb.SendOn(op.Size(), int(op.Peer()), op.Tag(), op.CPU())
		default:
			id = rb.RecvOn(op.Size(), int(op.Peer()), op.Tag(), op.CPU())
		}
		if chain && i > 0 {
			rb.Require(id, id-1)
		}
	}
}

// check requires rp to read back ref accessor for accessor, by index and
// through a cursor, and to hold them in one array of exactly the length
// the layout needs (layoutWords): no index or side words when no op
// keeps any.
func (ref refRank) check(t *testing.T, way string, r int, rp *RankProgram) {
	t.Helper()
	if rp.Len() != len(ref) {
		t.Fatalf("%s: rank %d has %d ops, want %d", way, r, rp.Len(), len(ref))
	}
	ops := rp.Cursor()
	for i, want := range ref {
		if got := rp.Op(i); got != want || fieldsOf(got) != fieldsOf(want) || rp.Kind(i) != want.Kind() {
			t.Fatalf("%s: rank %d op %d reads %+v (kind %v), want %+v", way, r, i, fieldsOf(got), rp.Kind(i), fieldsOf(want))
		}
		if got := ops.Next(); got != want {
			t.Fatalf("%s: rank %d op %d reads %+v through the cursor, want %+v", way, r, i, fieldsOf(got), fieldsOf(want))
		}
		if want.w1 < sideMark && want.w2 != 0 {
			t.Fatalf("%s: rank %d op %d: an op without a second word has w2 %#x", way, r, i, want.w2)
		}
	}
	if n := layoutWords(ref); len(rp.ops) != n || cap(rp.ops) != n {
		t.Fatalf("%s: rank %d holds %d ops in an array of len %d, cap %d; the layout needs %d", way, r, len(ref), len(rp.ops), cap(rp.ops), n)
	}
}

// FuzzProgramMatchesOps holds a rank's storage — short words, and side
// words found by rank/select or read in order by an OpCursor — to one Op
// per op (refRank): random ranks, with sizes and cpus either side of every
// short-form width, long calcs, sends and receives, spilled calcs up to
// 2^63 − 1 ns, negative and large cpus, ops in the reserved form,
// messages to peer 0 with tag 0, ranks of long ops only, ranks with no
// side words and op counts either side of a 64-op block edge, read back
// every op's
// accessors from the Builder and, when valid, from WriteBinary →
// ParseBinary, WriteText → ParseText and Compose (onto a permutation of
// the nodes, peers renumbered), and the three decodings equal the built
// schedule under reflect.DeepEqual.
func FuzzProgramMatchesOps(f *testing.F) {
	for shape := range 256 {
		for _, n := range []uint16{0, 1, 64, 129} {
			f.Add(uint64(shape)*1000+uint64(n), n, uint8(shape))
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, nops uint16, shape uint8) {
		rng := xrand.New(seed)
		nranks := 1 + rng.Intn(4)
		chain := shape&16 != 0
		refs := make([]refRank, nranks)
		b := NewBuilder(nranks)
		for r := range refs {
			n := int(nops%300) + rng.Intn(3) - 1 // either side of the count drawn
			refs[r] = drawRank(rng, r, nranks, max(n, 0), shape)
			if shape&32 != 0 {
				b.Rank(r).Grow(len(refs[r]), len(refs[r]), 0)
			}
			refs[r].build(b.Rank(r), chain)
		}
		s := b.Build()
		for r, ref := range refs {
			ref.check(t, "builder", r, &s.Ranks[r])
		}
		if s.Validate() != nil {
			return
		}
		var bin, text bytes.Buffer
		if err := WriteBinary(&bin, s); err != nil {
			t.Fatal(err)
		}
		if err := WriteText(&text, s); err != nil {
			t.Fatal(err)
		}
		fromBin, err := ParseBinary(bin.Bytes())
		if err != nil {
			t.Fatalf("ParseBinary: %v", err)
		}
		fromText, err := ParseText(&text)
		if err != nil {
			t.Fatalf("ParseText: %v", err)
		}
		perm := rng.Perm(nranks)
		composed, err := Compose([][]int{perm}, s)
		if err != nil {
			t.Fatalf("Compose: %v", err)
		}
		for r, ref := range refs {
			ref.check(t, "binary", r, &fromBin.Ranks[r])
			ref.check(t, "text", r, &fromText.Ranks[r])
			moved := make(refRank, len(ref))
			for i, op := range ref {
				if op.Kind() != KindCalc {
					op = op.WithPeer(int32(perm[op.Peer()]))
				}
				moved[i] = op
			}
			moved.check(t, "compose", perm[r], &composed.Ranks[perm[r]])
		}
		for way, got := range map[string]*Schedule{"binary": fromBin, "text": fromText} {
			if !reflect.DeepEqual(got.Ranks, s.Ranks) {
				t.Fatalf("%s: decoded ranks differ from the built ones", way)
			}
		}
	})
}

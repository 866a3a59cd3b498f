package goal

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"
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
		case err == nil && fieldsOf(s.Ranks[0].Ops[0]) != op:
			t.Fatalf("%s read %+v back as %+v", way, op, fieldsOf(s.Ranks[0].Ops[0]))
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

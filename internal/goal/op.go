package goal

import (
	"fmt"

	"atlahs/internal/simtime"
)

// Op is one GOAL task: a calc, a send or a receive. For sends and receives
// Size is a byte count and Peer/Tag identify the matching endpoint; for
// calcs Size is a duration in nanoseconds, Peer reads -1 and Tag 0.
//
// An op is two 8-byte words, the value every reader gets (RankProgram.Op)
// and reads through the accessor methods:
//
//	calc       w1: bit 63 clear, cpu in bits 42-62, size in bits 0-41
//	           w2: 0
//	spilled    w1: bit 63 clear, bits 42-62 set, size bits 0-41 in 0-41
//	calc       w2: cpu as an int32 in bits 0-31 (a negative cpu is held,
//	               and Validate refuses it), size bits 42-62 in 32-52
//	send/recv  w1: bit 63 set, bit 62 set for a recv, cpu in bits 41-61
//	               (0 to maxMessageCPU), size in bits 0-40 (0 to
//	               MaxMessageBytes)
//	           w2: peer as an int32 in bits 0-31, tag as an int32 in 32-63
//
// A calc spills when it lasts 2^42 ns or more or is on a cpu outside
// [0, maxMessageCPU]; otherwise its cpu and size fit in w1. So a calc
// holds any non-negative int64 nanoseconds and any int32 cpu. An op whose
// w1 is at least sideMark — a send, a receive, a spilled calc or the
// reserved form — has a w2; every other op's w2 is 0.
//
// A rank does not store these words as they are: it stores each op as a
// 4-byte short word (see appendSide) and keeps w1 and w2 only where the short
// word cannot hold them (see RankProgram).
//
// The one message cpu code above maxMessageCPU marks the reserved form,
// which stands for an op the packed form cannot hold: a negative size, a
// message over MaxMessageBytes or on a cpu outside [0, maxMessageCPU], or
// a kind other than the three. The two decoders refuse such values where
// they read them; the Builder stores them in the reserved form (w1 keeps
// which field and the kind, w2 the value) and Validate refuses the op,
// naming the field. Ops are built by the RankBuilder methods, the
// decoders and Compose (WithPeer).
type Op struct {
	w1, w2 uint64
}

// MaxMessageBytes bounds one send or receive (1 TiB), the one bound on a
// message's size: Validate and both decoders refuse a larger one.
const MaxMessageBytes = 1 << 40

const (
	// maxMessageCPU is the largest compute stream a send or receive may
	// be posted on; the cpu code above it is reserved.
	maxMessageCPU = cpuMask - 1

	msgBit   = 1 << 63
	recvBit  = 1 << 62
	cpuShift = 41
	cpuMask  = 1<<21 - 1
	sizeMask = 1<<cpuShift - 1
	// unheldMark is w1's message bit and reserved cpu code, which mark
	// the reserved form.
	unheldMark = msgBit | cpuMask<<cpuShift

	// A calc's cpu sits one bit higher than a message's, above 42 bits
	// of size.
	calcCPUShift = 42
	calcSizeMask = 1<<calcCPUShift - 1
	// sideMark is the least first word of an op that keeps its second:
	// a spilled calc's, whose cpu bits are all set. Every message's
	// first word is larger still.
	sideMark = cpuMask << calcCPUShift
)

// opField names the field of an op the packed form cannot hold.
type opField uint8

const (
	fieldNone opField = iota
	fieldKind
	fieldSize
	fieldCPU
)

// unheld reports the first field of an op of kind k, size and cpu that an
// Op cannot hold, and its value; fieldNone when it holds them all. After
// an unknown kind, a negative size or cpu comes before a bound, and within
// each the size before the cpu: the order Validate has always reported
// them in.
func unheld(k Kind, size int64, cpu int32) (opField, int64) {
	msg := k != KindCalc
	switch {
	case k > KindRecv:
		return fieldKind, int64(k)
	case size < 0:
		return fieldSize, size
	case msg && cpu < 0:
		return fieldCPU, int64(cpu)
	case msg && size > MaxMessageBytes:
		return fieldSize, size
	case msg && cpu > maxMessageCPU:
		return fieldCPU, int64(cpu)
	}
	return fieldNone, 0
}

// err describes value v of field f on an op of kind k.
func (f opField) err(k Kind, v int64) error {
	switch {
	case f == fieldKind:
		return fmt.Errorf("unknown kind %d", v)
	case f == fieldSize && v < 0:
		return fmt.Errorf("negative size %d", v)
	case f == fieldSize:
		return fmt.Errorf("%s size %d exceeds the %d-byte message bound", k, v, int64(MaxMessageBytes))
	case v < 0:
		return fmt.Errorf("negative cpu %d", v)
	default:
		return fmt.Errorf("%s cpu %d exceeds the largest message cpu %d", k, v, maxMessageCPU)
	}
}

// makeOp packs an op. Values it cannot hold give the reserved form, which
// Validate refuses.
func makeOp(k Kind, size int64, peer, tag, cpu int32) Op {
	if f, v := unheld(k, size, cpu); f != fieldNone {
		return Op{w1: unheldMark | uint64(f)<<2 | uint64(k&3), w2: uint64(v)}
	}
	return pack(k, size, peer, tag, cpu)
}

// pack packs an op whose values it holds (unheld finds none).
func pack(k Kind, size int64, peer, tag, cpu int32) Op {
	if k == KindCalc {
		if size > calcSizeMask || uint32(cpu) > maxMessageCPU {
			return Op{w1: sideMark | uint64(size)&calcSizeMask, w2: uint64(uint32(cpu)) | uint64(size)>>calcCPUShift<<32}
		}
		return Op{w1: uint64(cpu)<<calcCPUShift | uint64(size)}
	}
	w1 := msgBit | uint64(cpu)<<cpuShift | uint64(size)
	if k == KindRecv {
		w1 |= recvBit
	}
	return Op{w1: w1, w2: uint64(uint32(peer)) | uint64(uint32(tag))<<32}
}

// Kind returns the task type.
func (o Op) Kind() Kind { return kindOf(o.w1 >> 62) }

// kindOf returns the kind of an op from the top two bits of its first
// word, or of its short word: 0 and 1 a calc, 2 a send, 3 a receive.
func kindOf(k uint64) Kind { return Kind(k>>1 + k>>1&k) }

// A rank stores op i as a 4-byte short word, laid out so that its top two
// bits are an op's kind bits as kindOf reads them:
//
//	calc     bit 31 clear, cpu in bits 27-30, size in bits 0-26
//	send     bit 31 set, bit 30 clear, cpu in bits 26-29, size in 0-25
//	recv     bit 31 set, bit 30 set, cpu in bits 26-29, size in 0-25
//
// So a short word holds a calc of less than 2^27 ns (about 134 ms) or a
// message of less than 2^26 bytes (64 MiB), on cpu 0 to 14. The cpu code
// 15 marks a long op of that kind: an op the short word cannot hold,
// whose w1 the rank keeps whole, and its w2 too where it has one (a long
// message, a spilled calc, the reserved form), bit 0 then set in the
// short word. A short calc keeps nothing more; a short message keeps its
// w2, its peer and tag. These are an op's side words, and a short word is
// at least shortSide exactly when its op has any.
const (
	shortMsg      = 1 << 31
	shortCPUs     = 15 // the cpu code that marks a long op
	calcCPUAt     = 27
	calcSizeShort = 1<<calcCPUAt - 1
	msgCPUAt      = 26
	msgSizeShort  = 1<<msgCPUAt - 1
	// msgLong is a long message's cpu code in place.
	msgLong = shortCPUs << msgCPUAt
	// shortSide is the least short word of an op with side words: a long
	// calc's. Every message's is larger still.
	shortSide = shortCPUs << calcCPUAt
	// shortTwo marks a long op with two side words.
	shortTwo = 1
)

// shortCalc returns the short word of a calc of size ns on cpu, which
// the short word holds (cpu < shortCPUs, size <= calcSizeShort).
func shortCalc(size, cpu uint64) uint32 { return uint32(cpu<<calcCPUAt | size) }

// shortMessage returns the short word of a send (recv 0) or a receive
// (recv 1) of size bytes on cpu, which the short word holds (cpu <
// shortCPUs, size <= msgSizeShort).
func shortMessage(recv, size, cpu uint64) uint32 {
	return uint32(shortMsg | recv<<30 | cpu<<msgCPUAt | size)
}

// appendSide returns o's short word, appending its side words to side.
func appendSide(side []uint64, o Op) (uint32, []uint64) {
	w := o.w1
	if w&msgBit == 0 {
		if cpu, size := w>>calcCPUShift, w&calcSizeMask; cpu < shortCPUs && size <= calcSizeShort {
			return shortCalc(size, cpu), side
		}
	} else if cpu, size := w>>cpuShift&cpuMask, w&sizeMask; cpu < shortCPUs && size <= msgSizeShort {
		return shortMessage(w>>62&1, size, cpu), append(side, o.w2)
	}
	// A long op: its kind bits and cpu code 15, and its whole words.
	s := uint32(shortSide)
	if w&msgBit != 0 {
		s = uint32(w>>62<<30) | msgLong
	}
	if w >= sideMark {
		return s | shortTwo, append(side, w, o.w2)
	}
	return s, append(side, w)
}

// calcOf returns the op whose short word s is a short calc's (s <
// shortSide); expandSide reads every other op. Readers test s themselves,
// so that both are inlined into their loops.
func calcOf(s uint32) Op {
	return Op{w1: uint64(s>>calcCPUAt)<<calcCPUShift | uint64(s&calcSizeShort)}
}

// expandSide returns the op whose short word is s, an op with side words
// (s >= shortSide) that begin at ops[at], and how many side words it has.
func expandSide(s uint32, ops []uint64, at int) (Op, int) {
	switch {
	case s >= shortMsg && s&msgLong != msgLong:
		return Op{w1: uint64(s>>30)<<62 | uint64(s>>msgCPUAt&shortCPUs)<<cpuShift | uint64(s&msgSizeShort), w2: ops[at]}, 1
	case s&shortTwo == 0:
		return Op{w1: ops[at]}, 1
	}
	return Op{w1: ops[at], w2: ops[at+1]}, 2
}

// twoSides reports whether the op whose short word is s has two side
// words: a long op with shortTwo set.
func twoSides(s uint32) bool {
	long := s >= shortSide && s < shortMsg || s >= shortMsg && s&msgLong == msgLong
	return long && s&shortTwo != 0
}

// isCalc reports whether o is a calc.
func (o Op) isCalc() bool { return o.w1&msgBit == 0 }

// Size returns the byte count of a send or receive, or the nanoseconds of
// a calc.
func (o Op) Size() int64 {
	if o.isCalc() {
		return int64(o.w1&calcSizeMask | o.w2>>32<<calcCPUShift)
	}
	return int64(o.w1 & sizeMask)
}

// CPU returns the compute stream; 0 is the default stream.
func (o Op) CPU() int32 {
	if o.isCalc() {
		if cpu := o.w1 >> calcCPUShift; cpu != cpuMask {
			return int32(cpu)
		}
		return int32(o.w2)
	}
	return int32(o.w1 >> cpuShift & cpuMask)
}

// Peer returns the destination of a send or the source of a receive, and
// -1 for a calc.
func (o Op) Peer() int32 {
	if o.isCalc() {
		return -1
	}
	return int32(o.w2)
}

// Tag returns the message tag of a send or receive (AnyTag matches any on
// a receive), and 0 for a calc.
func (o Op) Tag() int32 {
	if o.isCalc() {
		return 0
	}
	return int32(o.w2 >> 32)
}

// WithPeer returns o with its peer replaced: how Compose renumbers a job's
// messages onto fabric nodes. A calc is returned as it is.
func (o Op) WithPeer(peer int32) Op {
	if !o.isCalc() {
		o.w2 = o.w2&^(1<<32-1) | uint64(uint32(peer))
	}
	return o
}

// CalcDuration returns the simulated duration of a calc op after applying
// the hardware-adaptation scale factor (paper §7). scale 1.0 means the op
// runs for exactly Size nanoseconds.
func (o Op) CalcDuration(scale float64) simtime.Duration {
	if scale == 1.0 {
		return simtime.FromNanos(o.Size())
	}
	return simtime.FromNanosF(float64(o.Size()) * scale)
}

// held reports whether o is an op, not the reserved form of values the
// packed form cannot hold.
func (o Op) held() bool { return o.w1&unheldMark != unheldMark }

// unheldErr is the error naming the field an op in the reserved form
// could not hold.
func (o Op) unheldErr() error {
	return opField(o.w1>>2&3).err(Kind(o.w1&3), int64(o.w2))
}

package collective

import (
	"testing"

	"atlahs/internal/goal"
)

// FuzzDecompose emits every member of a random collective onto its own
// rank, behind an entry op, and checks what per-position decomposition
// promises: the group's schedule is valid and matched, a Count given the
// same member counts exactly the ops and edges the builder received, the
// returned exit is one of the member's own ops, and a rejected collective
// is rejected at every position with nothing emitted.
func FuzzDecompose(f *testing.F) {
	f.Add(uint8(Allreduce), uint8(Ring), uint8(8), uint8(0), uint32(1<<20), uint8(3), uint32(4096), false)
	f.Add(uint8(Bcast), uint8(Ring), uint8(5), uint8(4), uint32(1000), uint8(2), uint32(0), true)
	f.Add(uint8(Allreduce), uint8(RecDoubling), uint8(7), uint8(0), uint32(64), uint8(1), uint32(0), true)
	f.Add(uint8(Reduce), uint8(Binomial), uint8(13), uint8(6), uint32(9), uint8(1), uint32(0), false)
	f.Add(uint8(Alltoall), uint8(Ring), uint8(4), uint8(0), uint32(9), uint8(1), uint32(0), false)
	f.Fuzz(func(t *testing.T, kind, algo, n, root uint8, bytes uint32, channels uint8, chunk uint32, ll bool) {
		k, a := Kind(kind%9), Algo(algo%6)
		size := int(n%16) + 1
		opt := Options{
			Channels:        int(channels%8) + 1,
			ChunkBytes:      int64(chunk%(1<<20)) + 4096,
			ChannelStreams:  ll,
			TagBase:         TagSpan,
			ReduceNsPerByte: 0.01,
		}
		if ll {
			opt.Protocol = LL
		}
		payload := int64(bytes % (1<<20 + 1))
		ranks := make([]int, size)
		for i := range ranks {
			ranks[i] = size - 1 - i // communicator order is not rank order
		}
		b := goal.NewBuilder(size)
		edges := make([]int, size) // counted, by rank
		var rejected error
		for pos, r := range ranks {
			rb := b.Rank(r)
			entry := rb.Calc(1)
			var c Count
			cexit, cerr := Decompose(&c, k, a, ranks, pos, int(root), payload, opt, 0)
			exit, err := Decompose(rb, k, a, ranks, pos, int(root), payload, opt, entry)
			if (err == nil) != (cerr == nil) || (pos > 0 && (err == nil) != (rejected == nil)) {
				t.Fatalf("%v/%v position %d: error %v, counting %v, position 0 %v", k, a, pos, err, cerr, rejected)
			}
			// A calc after the collective, with no edges, numbers the ops
			// it emitted.
			next := rb.Calc(1)
			if err != nil {
				rejected = err
				if next != entry+1 {
					t.Fatalf("%v/%v position %d: rejected (%v) after emitting %d ops", k, a, pos, err, next-entry-1)
				}
				continue
			}
			if got := int(next - entry - 1); got != c.Ops {
				t.Fatalf("%v/%v position %d: emitted %d ops, counted %d", k, a, pos, got, c.Ops)
			}
			if exit <= entry || exit >= next || cexit != exit-1 {
				t.Fatalf("%v/%v position %d: exit %d (counted %d) is not one of ops %d..%d", k, a, pos, exit, cexit, entry+1, next-1)
			}
			edges[r] = c.Edges
		}
		if rejected != nil {
			return
		}
		s := b.Build()
		if err := s.Validate(); err != nil {
			t.Fatalf("%v/%v: %v", k, a, err)
		}
		if err := s.CheckMatched(); err != nil {
			t.Fatalf("%v/%v: %v", k, a, err)
		}
		for r := range s.Ranks {
			if got := s.Ranks[r].Requires.NumEdges(); got != edges[r] {
				t.Fatalf("%v/%v rank %d: emitted %d edges, counted %d", k, a, r, got, edges[r])
			}
		}
	})
}

// TestDecomposeAllocatesNothing: with the builder grown for what the
// members are about to emit, decomposing a collective allocates nothing —
// no per-collective or per-member scratch — and neither does counting it.
func TestDecomposeAllocatesNothing(t *testing.T) {
	const n, runs = 8, 4
	opt := Options{Channels: 3, ChunkBytes: 4096, ChannelStreams: true, ReduceNsPerByte: 0.01}
	for _, ka := range pinnedAlgos {
		ranks := group(n)
		emit := func(e func(pos int) Emitter) {
			for pos := range ranks {
				if _, err := Decompose(e(pos), ka.kind, ka.algo, ranks, pos, n-1, 1<<20+3, opt, -1); err != nil {
					t.Fatal(err)
				}
			}
		}
		var c Count
		if a := testing.AllocsPerRun(runs, func() { emit(func(int) Emitter { return &c }) }); a != 0 {
			t.Errorf("%v/%v: counting allocated %.0f times per collective", ka.kind, ka.algo, a)
		}
		b := goal.NewBuilder(n)
		for pos, r := range ranks {
			var c Count
			if _, err := Decompose(&c, ka.kind, ka.algo, ranks, pos, n-1, 1<<20+3, opt, -1); err != nil {
				t.Fatal(err)
			}
			// AllocsPerRun calls its function once more than runs
			b.Rank(r).Grow((runs+1)*c.Ops, (runs+1)*c.Edges, 0)
		}
		if a := testing.AllocsPerRun(runs, func() { emit(func(pos int) Emitter { return b.Rank(ranks[pos]) }) }); a != 0 {
			t.Errorf("%v/%v: decomposing into a grown builder allocated %.0f times per collective", ka.kind, ka.algo, a)
		}
	}
}

// Package micro generates the synthetic microbenchmarks networking papers
// conventionally evaluate with (incast, permutation; paper §1 and Fig 1C).
// ATLAHS argues these under-represent real workloads — the Fig 1C
// experiment contrasts them against replayed LLM training traffic, so the
// toolchain ships both.
//
// Every generator knows each rank's op and dependency counts before it
// emits, and tells the builder (goal.RankBuilder.Grow), so a schedule's
// arrays are allocated once at their final size.
package micro

import (
	"atlahs/internal/goal"
	"atlahs/internal/xrand"
)

// Incast builds a schedule where fanin senders each transmit bytes to rank
// 0 simultaneously (the canonical congestion microbenchmark).
func Incast(n, fanin int, bytes int64) *goal.Schedule {
	fanin = max(min(fanin, n-1), 0)
	b := goal.NewBuilder(n)
	b.Rank(0).Grow(fanin, 0, 0)
	for s := 1; s <= fanin; s++ {
		b.Rank(s).Grow(1, 0, 0)
	}
	for s := 1; s <= fanin; s++ {
		b.Rank(s).Send(bytes, 0, int32(s))
		b.Rank(0).Recv(bytes, s, int32(s))
	}
	return b.MustBuild()
}

// Permutation builds a random one-to-one traffic pattern: every rank sends
// bytes to a unique destination (a seeded derangement).
func Permutation(n int, bytes int64, seed uint64) *goal.Schedule {
	rng := xrand.New(seed)
	perm := rng.Perm(n)
	// make it a derangement so nobody sends to itself
	for i := 0; i < n; i++ {
		if perm[i] == i {
			j := (i + 1) % n
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	b := goal.NewBuilder(n)
	for r := 0; r < n; r++ {
		b.Rank(r).Grow(2, 0, 0) // one send, one receive
	}
	for src, dst := range perm {
		b.Rank(src).Send(bytes, dst, 0)
		b.Rank(dst).Recv(bytes, src, 0)
	}
	return b.MustBuild()
}

// Ring builds a neighbour ring: rank i sends to i+1 and receives from i-1.
func Ring(n int, bytes int64) *goal.Schedule {
	b := goal.NewBuilder(n)
	for r := 0; r < n; r++ {
		b.Rank(r).Grow(2, 0, 0)
	}
	for r := 0; r < n; r++ {
		b.Rank(r).Send(bytes, (r+1)%n, 0)
		b.Rank(r).Recv(bytes, (r+n-1)%n, 0)
	}
	return b.MustBuild()
}

// AllToAll builds a full exchange: every rank sends bytes to every other
// rank, all flows released at once.
func AllToAll(n int, bytes int64) *goal.Schedule {
	b := goal.NewBuilder(n)
	for r := 0; r < n; r++ {
		b.Rank(r).Grow(2*(n-1), 0, 0)
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			b.Rank(src).Send(bytes, dst, int32(src))
			b.Rank(dst).Recv(bytes, src, int32(src))
		}
	}
	return b.MustBuild()
}

// UniformRandom builds msgs random point-to-point messages with
// exponential think time between a rank's consecutive sends.
func UniformRandom(n, msgs int, bytes int64, seed uint64) *goal.Schedule {
	b := goal.NewBuilder(n)
	// Count by drawing the same messages first: a source gets a gap and a
	// send, the send requiring the gap and the gap the source's last send,
	// and a destination a receive.
	ops, requires := make([]int, n), make([]int, n)
	rng := xrand.New(seed)
	for m := 0; m < msgs; m++ {
		src, dst := pair(rng, n)
		rng.Int63n(10_000)
		if requires[src] > 0 { // src has sent before
			requires[src]++
		}
		ops[src] += 2
		requires[src]++
		ops[dst]++
	}
	for r := 0; r < n; r++ {
		b.Rank(r).Grow(ops[r], requires[r], 0)
	}
	rng = xrand.New(seed)
	heads := make([]goal.OpID, n)
	for i := range heads {
		heads[i] = -1
	}
	for m := 0; m < msgs; m++ {
		src, dst := pair(rng, n)
		tag := int32(m)
		rb := b.Rank(src)
		gap := rb.Calc(rng.Int63n(10_000))
		if heads[src] >= 0 {
			rb.Requires(gap, heads[src])
		}
		s := rb.Send(bytes, dst, tag)
		rb.Requires(s, gap)
		heads[src] = s
		b.Rank(dst).Recv(bytes, src, tag)
	}
	return b.MustBuild()
}

// pair draws a message's source and, uniformly among the other ranks, its
// destination.
func pair(rng *xrand.RNG, n int) (src, dst int) {
	src = rng.Intn(n)
	dst = rng.Intn(n - 1)
	if dst >= src {
		dst++
	}
	return src, dst
}

// BulkSynchronous builds a BSP-style workload: `phases` rounds in which
// every rank computes for calcNanos, then exchanges bytes with every other
// rank (a full all-to-all), with each rank's round depending on its
// previous round completing. The pattern keeps every rank busy in every
// lookahead window, which makes it the reference workload for the parallel
// engine's determinism tests and serial-vs-parallel benchmarks.
func BulkSynchronous(n, phases int, bytes int64, calcNanos int64) *goal.Schedule {
	phases = max(phases, 0)
	b := goal.NewBuilder(n)
	// A rank's round is a calc, n-1 sends that require it and n-1
	// receives; every round after the first has its calc require the
	// previous round's calc and receives.
	for r := 0; r < n; r++ {
		b.Rank(r).Grow(phases*(2*n-1), phases*(n-1)+max(phases-1, 0)*n, 0)
	}
	// Senders take turns within a round, so rank r's 2n-1 ops of round p
	// start at p*(2n-1) and are the receives from ranks 0..r-1, the calc,
	// the n-1 sends, then the receives from ranks r+1..n-1. Its next calc
	// requires, in sender order, the receive from each rank s (op s of the
	// round for s < r, op n-1+s for s > r) and its own calc (op r).
	for p := 0; p < phases; p++ {
		base := p * (2*n - 1)
		for r := 0; r < n; r++ {
			rb := b.Rank(r)
			c := rb.Calc(calcNanos)
			if p > 0 {
				prev := base - (2*n - 1)
				for s := 0; s < n; s++ {
					dep := prev + s
					if s > r {
						dep += n - 1
					}
					rb.Require(c, goal.OpID(dep))
				}
			}
			for d := 0; d < n; d++ {
				if d == r {
					continue
				}
				tag := int32(p*n + r)
				s := rb.Send(bytes, d, tag)
				rb.Requires(s, c)
				b.Rank(d).Recv(bytes, r, tag)
			}
		}
	}
	return b.MustBuild()
}

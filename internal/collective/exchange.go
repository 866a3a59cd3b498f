package collective

import "atlahs/internal/goal"

// recDoublingAllreduce exchanges the full vector with a partner at
// distance 2^k each round — latency-optimal for small payloads. For
// non-powers of two the standard fold is used: the first `rem` odd ranks
// fold into their even neighbour before the doubling phase and get the
// result back afterwards.
func (m *member) recDoublingAllreduce() goal.OpID {
	n, q, w, tag := m.n, m.pos, m.wire(m.bytes), m.opt.TagBase
	p2 := 1
	for p2*2 <= n {
		p2 *= 2
	}
	rem := n - p2
	folded := q < 2*rem && q%2 == 1 // sits the doubling phase out

	last := m.entry
	reduceCalc := func(after goal.OpID) goal.OpID {
		if m.opt.ReduceNsPerByte <= 0 || m.bytes == 0 {
			return after
		}
		c := m.e.CalcOn(int64(m.opt.ReduceNsPerByte*float64(m.bytes)), m.opt.CPU)
		m.e.Require(c, after)
		return c
	}

	// fold phase: positions 2i+1 (i < rem) send to 2i
	if q < 2*rem {
		if folded {
			s := m.e.SendOn(w, m.ranks[q-1], tag, m.opt.CPU)
			m.require(s, last)
			last = s
		} else {
			r := m.e.RecvOn(w, m.ranks[q+1], tag, m.opt.CPU)
			m.require(r, last)
			last = reduceCalc(r)
		}
	}

	// doubling phase among the active positions: the evens of the folded
	// pairs, then the tail; activePos maps an index in that list back
	if !folded {
		activePos := func(a int) int {
			if a < rem {
				return 2 * a
			}
			return a + rem
		}
		a := q - rem
		if q < 2*rem {
			a = q / 2
		}
		for k := 1; k < p2; k <<= 1 {
			partner := m.ranks[activePos(a^k)]
			s := m.e.SendOn(w, partner, tag+1, m.opt.CPU)
			m.require(s, last)
			r := m.e.RecvOn(w, partner, tag+1, m.opt.CPU)
			m.require(r, last)
			last = reduceCalc(m.join(s, r))
		}
	}

	// unfold: evens return the result to their odd partner
	if q < 2*rem {
		if folded {
			r := m.e.RecvOn(w, m.ranks[q-1], tag+2, m.opt.CPU)
			m.require(r, last)
			last = r
		} else {
			s := m.e.SendOn(w, m.ranks[q+1], tag+2, m.opt.CPU)
			m.require(s, last)
			last = s
		}
	}
	return last
}

// pairwiseAlltoall: N-1 rounds; in round s, position i exchanges its
// per-peer block with positions i+s and i-s. Rounds are chained per rank
// to bound concurrent buffer usage (the conventional MPI implementation).
func (m *member) pairwiseAlltoall() goal.OpID {
	w := m.wire(m.bytes)
	last := m.entry
	for s := 1; s < m.n; s++ {
		tag := m.opt.TagBase + int32(s%TagSpan)
		snd := m.e.SendOn(w, m.rank(m.pos+s), tag, m.opt.CPU)
		m.require(snd, last)
		rcv := m.e.RecvOn(w, m.rank(m.pos-s), tag, m.opt.CPU)
		m.require(rcv, last)
		last = m.join(snd, rcv)
	}
	return last
}

// disseminationBarrier: ceil(log2 N) rounds of 1-byte tokens to the
// +2^k neighbour; after the last round every rank knows all arrived.
func (m *member) disseminationBarrier() goal.OpID {
	last := m.entry
	round := 0
	for k := 1; k < m.n; k <<= 1 {
		tag := m.opt.TagBase + int32(round%TagSpan)
		round++
		snd := m.e.SendOn(1, m.rank(m.pos+k), tag, m.opt.CPU)
		m.require(snd, last)
		rcv := m.e.RecvOn(1, m.rank(m.pos-k), tag, m.opt.CPU)
		m.require(rcv, last)
		last = m.join(snd, rcv)
	}
	return last
}

// linearGather: every non-root sends its block to the root, which
// receives them in position order.
func (m *member) linearGather() goal.OpID {
	w, tag := m.wire(m.bytes), m.opt.TagBase
	if m.pos != m.root {
		s := m.e.SendOn(w, m.ranks[m.root], tag, m.opt.CPU)
		m.require(s, m.entry)
		return s
	}
	last := goal.OpID(-1)
	for i, r := range m.ranks {
		if i == m.root {
			continue
		}
		rcv := m.e.RecvOn(w, r, tag, m.opt.CPU)
		m.require(rcv, m.entry)
		m.require(rcv, last)
		last = rcv
	}
	return last
}

// linearScatter: the root sends each rank its block, in position order.
func (m *member) linearScatter() goal.OpID {
	w, tag := m.wire(m.bytes), m.opt.TagBase
	if m.pos != m.root {
		r := m.e.RecvOn(w, m.ranks[m.root], tag, m.opt.CPU)
		m.require(r, m.entry)
		return r
	}
	last := goal.OpID(-1)
	for i, r := range m.ranks {
		if i == m.root {
			continue
		}
		s := m.e.SendOn(w, r, tag, m.opt.CPU)
		m.require(s, m.entry)
		m.require(s, last)
		last = s
	}
	return last
}

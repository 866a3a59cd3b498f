package collective

import "atlahs/internal/goal"

// binomialBcast: in round k the first k ranks (root-relative) send to
// their +k partner, k doubling each round; log2(N) rounds total. A member
// other than the root receives once, in the round its relative position
// first falls below 2k, and sends in every later round that has a partner
// for it; with N >= 2 every member ends on an op of its own.
func (m *member) binomialBcast() goal.OpID {
	n, w, tag := m.n, m.wire(m.bytes), m.opt.TagBase
	q := (m.pos - m.root + n) % n // relative position; q is ranks[(root+q)%n]
	last := goal.OpID(-1)
	for k := 1; k < n; k <<= 1 {
		switch {
		case q < k && q+k < n:
			s := m.e.SendOn(w, m.rank(m.pos+k), tag, m.opt.CPU)
			m.require(s, m.entry)
			m.require(s, last)
			last = s
		case q >= k && q < 2*k:
			r := m.e.RecvOn(w, m.rank(m.pos-k), tag, m.opt.CPU)
			m.require(r, m.entry)
			last = r
		}
	}
	return last
}

// binomialReduce mirrors binomialBcast with reversed data flow: leaves
// send first, the root receives last. A reducing calc may follow each recv.
func (m *member) binomialReduce() goal.OpID {
	n, w, tag := m.n, m.wire(m.bytes), m.opt.TagBase
	q := (m.pos - m.root + n) % n
	last := goal.OpID(-1)
	// the smallest power of two >= n
	start := 1
	for start < n {
		start <<= 1
	}
	for k := start; k >= 1; k >>= 1 {
		switch {
		case q >= k && q < 2*k:
			// q sends its (partial) result to q-k
			s := m.e.SendOn(w, m.rank(m.pos-k), tag, m.opt.CPU)
			m.require(s, m.entry)
			m.require(s, last)
			last = s
		case q < k && q+k < n:
			r := m.e.RecvOn(w, m.rank(m.pos+k), tag, m.opt.CPU)
			m.require(r, m.entry)
			m.require(r, last)
			last = r
			if m.opt.ReduceNsPerByte > 0 && m.bytes > 0 {
				calc := m.e.CalcOn(int64(m.opt.ReduceNsPerByte*float64(m.bytes)), m.opt.CPU)
				m.e.Require(calc, r)
				last = calc
			}
		}
	}
	return last
}

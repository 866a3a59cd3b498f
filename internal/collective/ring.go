package collective

import "atlahs/internal/goal"

// ringAllreduce is the bandwidth-optimal reduce-scatter + allgather ring:
// each rank sends 2(N-1)/N of the payload per channel. The payload is
// split across channels (parallel rings), and within a channel into N
// blocks rotated around the ring for 2(N-1) steps. Reducing receives may
// charge a local reduction calc. NCCL alternates ring direction across
// channels to spread load over both directions of every link, so odd
// channels traverse the ring reversed.
func (m *member) ringAllreduce() goal.OpID {
	n, ch := m.n, m.opt.channels()
	var terms [TagSpan]goal.OpID
	for c := 0; c < ch; c++ {
		tag := m.opt.TagBase + int32(c)
		cpu := m.opt.cpuFor(c)
		// i is the member's place in this channel's ring order; the block
		// flowing out of place i at a step is the one it received the step
		// before
		i, next, prev := m.pos, m.rank(m.pos+1), m.rank(m.pos-1)
		if c%2 == 1 {
			i, next, prev = n-1-m.pos, prev, next
		}
		chanBytes := share(m.bytes, ch, c)
		last := m.entry
		for step := 0; step < 2*(n-1); step++ {
			outBlock := share(chanBytes, n, (i-step%n+2*n)%n)
			inBlock := share(chanBytes, n, (i-1-step%n+2*n)%n)
			s := m.e.SendOn(m.wire(outBlock), next, tag, cpu)
			m.require(s, last)
			r := m.e.RecvOn(m.wire(inBlock), prev, tag, cpu)
			m.require(r, m.entry)
			last = r
			if step < n-1 && m.opt.ReduceNsPerByte > 0 && inBlock > 0 {
				calc := m.e.CalcOn(int64(m.opt.ReduceNsPerByte*float64(inBlock)), cpu)
				m.e.Require(calc, r)
				last = calc
			}
		}
		terms[c] = last
	}
	return m.join(terms[:ch]...)
}

// ringBcast pipelines the payload along the ring in buffer-limited chunks
// (paper Fig 4): the root pushes chunks to its successor; every
// intermediate rank forwards each chunk as soon as it arrives; the last
// rank only receives.
func (m *member) ringBcast() goal.OpID {
	n, ch := m.n, m.opt.channels()
	rel := (m.pos - m.root + n) % n // ring order starts at the root
	var terms [TagSpan]goal.OpID
	for c := 0; c < ch; c++ {
		tag := m.opt.TagBase + int32(c)
		cpu := m.opt.cpuFor(c)
		chanBytes, chunk := share(m.bytes, ch, c), m.opt.chunk()
		nchunks := chunks(chanBytes, chunk)
		lastRecv, lastSend := goal.OpID(-1), goal.OpID(-1)
		for k := int64(0); k < nchunks; k++ {
			w := m.wire(min(chunk, chanBytes-k*chunk))
			if rel == 0 {
				// the root sends chunk after chunk to its successor
				// (sequential on the stream, Fig 4's "transmitted
				// sequentially")
				s := m.e.SendOn(w, m.rank(m.pos+1), tag, cpu)
				m.require(s, m.entry)
				m.require(s, lastSend)
				lastSend = s
				continue
			}
			r := m.e.RecvOn(w, m.rank(m.pos-1), tag, cpu)
			m.require(r, m.entry)
			m.require(r, lastRecv)
			lastRecv = r
			if rel < n-1 {
				f := m.e.SendOn(w, m.rank(m.pos+1), tag, cpu)
				m.e.Require(f, r)
				m.require(f, lastSend)
				lastSend = f
			}
		}
		switch {
		case rel == 0:
			terms[c] = lastSend
		case lastSend < 0:
			terms[c] = lastRecv
		default:
			terms[c] = m.join(lastRecv, lastSend)
		}
	}
	return m.join(terms[:ch]...)
}

// ringAllgather rotates every rank's block around the ring in N-1 steps.
func (m *member) ringAllgather() goal.OpID {
	ch := m.opt.channels()
	var terms [TagSpan]goal.OpID
	for c := 0; c < ch; c++ {
		tag := m.opt.TagBase + int32(c)
		cpu := m.opt.cpuFor(c)
		w := m.wire(share(m.bytes, ch, c))
		last := m.entry
		for step := 0; step < m.n-1; step++ {
			s := m.e.SendOn(w, m.rank(m.pos+1), tag, cpu)
			m.require(s, last)
			r := m.e.RecvOn(w, m.rank(m.pos-1), tag, cpu)
			m.require(r, m.entry)
			last = r
		}
		terms[c] = last
	}
	return m.join(terms[:ch]...)
}

// ringReduceScatter is the reducing half of the ring allreduce: N-1 steps,
// each moving one block and reducing on arrival.
func (m *member) ringReduceScatter() goal.OpID {
	n, ch, i := m.n, m.opt.channels(), m.pos
	var terms [TagSpan]goal.OpID
	for c := 0; c < ch; c++ {
		tag := m.opt.TagBase + int32(c)
		cpu := m.opt.cpuFor(c)
		chanBytes := share(m.bytes, ch, c)
		last := m.entry
		for step := 0; step < n-1; step++ {
			outBlock := share(chanBytes, n, (i-step%n+2*n)%n)
			inBlock := share(chanBytes, n, (i-1-step%n+2*n)%n)
			s := m.e.SendOn(m.wire(outBlock), m.rank(i+1), tag, cpu)
			m.require(s, last)
			r := m.e.RecvOn(m.wire(inBlock), m.rank(i-1), tag, cpu)
			m.require(r, m.entry)
			last = r
			if m.opt.ReduceNsPerByte > 0 && inBlock > 0 {
				calc := m.e.CalcOn(int64(m.opt.ReduceNsPerByte*float64(inBlock)), cpu)
				m.e.Require(calc, r)
				last = calc
			}
		}
		terms[c] = last
	}
	return m.join(terms[:ch]...)
}

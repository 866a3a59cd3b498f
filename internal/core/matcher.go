package core

import "slices"

// Matcher implements MPI-style receiver-side message matching shared by
// all backends: messages from a source arrive in order and match posted
// receives by (source, tag), with TagAny receives matching any tag from
// their source. Unexpected messages (arriving before a matching receive is
// posted) queue until one is; early receives queue until a message
// arrives. Matching respects MPI's non-overtaking rule: among eligible
// candidates the earliest posted/arrived wins.
//
// M and R are backend-specific payload types carried through the match
// (e.g. arrival times, op handles, a pointer to the backend's message
// record). A matched entry is cleared out of its queue (slices.Delete
// zeroes the slot it vacates): the matcher never keeps a payload reachable
// after handing it back, so a backend may recycle what M points to.
type Matcher[M, R any] struct {
	dsts []matchRank[M, R]
}

type matchRank[M, R any] struct {
	// per source rank
	arrived map[int][]taggedMsg[M]
	posted  map[int][]taggedRecv[R]
}

type taggedMsg[M any] struct {
	tag int32
	msg M
}

type taggedRecv[R any] struct {
	tag  int32 // TagAny matches any
	recv R
}

// NewMatcher creates a matcher for nranks destination ranks.
func NewMatcher[M, R any](nranks int) *Matcher[M, R] {
	m := &Matcher[M, R]{dsts: make([]matchRank[M, R], nranks)}
	for i := range m.dsts {
		m.dsts[i].arrived = map[int][]taggedMsg[M]{}
		m.dsts[i].posted = map[int][]taggedRecv[R]{}
	}
	return m
}

// Arrive records a message from src to dst with the given tag. If a posted
// receive matches, it is removed and returned with ok=true; otherwise the
// message queues as unexpected.
func (m *Matcher[M, R]) Arrive(dst, src int, tag int32, msg M) (recv R, ok bool) {
	d := &m.dsts[dst]
	posted := d.posted[src]
	for i, pr := range posted {
		if pr.tag == TagAny || pr.tag == tag {
			d.posted[src] = slices.Delete(posted, i, i+1)
			return pr.recv, true
		}
	}
	d.arrived[src] = append(d.arrived[src], taggedMsg[M]{tag: tag, msg: msg})
	var zero R
	return zero, false
}

// Post records a receive at dst for a message from src with the given tag
// (TagAny = wildcard). If an unexpected message matches, it is removed and
// returned with ok=true; otherwise the receive queues.
func (m *Matcher[M, R]) Post(dst, src int, tag int32, recv R) (msg M, ok bool) {
	d := &m.dsts[dst]
	arrived := d.arrived[src]
	for i, am := range arrived {
		if tag == TagAny || am.tag == tag {
			d.arrived[src] = slices.Delete(arrived, i, i+1)
			return am.msg, true
		}
	}
	d.posted[src] = append(d.posted[src], taggedRecv[R]{tag: tag, recv: recv})
	var zero M
	return zero, false
}

// Pending counts, over all destinations, the unexpected messages and the
// posted receives still waiting for their match. Both are zero after a run
// that completed: every send met its receive.
func (m *Matcher[M, R]) Pending() (arrived, posted int) {
	for i := range m.dsts {
		for _, q := range m.dsts[i].arrived {
			arrived += len(q)
		}
		for _, q := range m.dsts[i].posted {
			posted += len(q)
		}
	}
	return arrived, posted
}

package ncclgoal

import (
	"sync"

	"atlahs/internal/trace/nsys"
)

// scratch is what a conversion works in and then drops: the report the
// frontend parses into and the plan's tables. None of it is reachable
// from a schedule built in it, and none of it carries information from
// one conversion to the next, since a conversion writes every element it
// reads, so a scratch is kept for the next conversion after an error too.
type scratch struct {
	rep  nsys.Report
	plan plan
}

// kept is the process's stock of scratches, under the rule sim keeps its
// run states by: a conversion takes the scratch returned last or makes
// one, so the process never holds more scratches than it once had
// conversions in flight at the same time, and a sequence of conversions
// shares one, as large as the largest conversion it served.
var kept struct {
	sync.Mutex
	free []*scratch
}

// takeScratch starts a conversion on the scratch returned last, or on a
// new one.
func takeScratch() *scratch {
	kept.Lock()
	defer kept.Unlock()
	k := len(kept.free)
	if k == 0 {
		return new(scratch)
	}
	s := kept.free[k-1]
	kept.free[k-1] = nil
	kept.free = kept.free[:k-1]
	return s
}

// release returns s to the stock, without the references its plan holds
// into the report it served (a caller's, for Generate).
func (s *scratch) release() {
	p := &s.plan
	p.rep = nil
	clear(p.pending)
	clear(p.names)
	clear(p.comms)
	clear(p.commIdx)
	kept.Lock()
	defer kept.Unlock()
	kept.free = append(kept.free, s)
}

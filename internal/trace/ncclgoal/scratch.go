package ncclgoal

import (
	"atlahs/internal/registry"
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

// kept is the process's stock of scratches.
var kept registry.Stock[scratch]

// release returns s to the stock, without the references its plan holds
// into the report it served (a caller's, for Generate).
func (s *scratch) release() {
	p := &s.plan
	p.rep = nil
	clear(p.pending)
	clear(p.names)
	clear(p.comms)
	clear(p.commIdx)
	kept.Put(s)
}

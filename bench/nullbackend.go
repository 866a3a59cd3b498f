package main

import (
	"atlahs/internal/core"
	"atlahs/internal/engine"
	"atlahs/internal/simtime"
)

// nullBackend is the cheapest backend that still satisfies the scheduler:
// calcs and sends complete at the time they are issued, a message reaches
// its destination one lookahead later and completes the matching receive
// there. Running a schedule on it measures the floor that scheduler,
// engine and message matching set under every real backend.
type nullBackend struct {
	la    simtime.Duration
	over  core.CompletionFunc
	lanes []engine.Sim
	match *core.Matcher[struct{}, core.Handle]
}

func (b *nullBackend) Name() string { return "null" }

// Lookahead implements core.LookaheadProvider, so the backend also runs on
// the parallel engine.
func (b *nullBackend) Lookahead() simtime.Duration { return b.la }

func (b *nullBackend) Setup(nranks int, eng engine.Sim, over core.CompletionFunc) error {
	b.over = over
	b.lanes = make([]engine.Sim, nranks)
	for i := range b.lanes {
		b.lanes[i] = eng.Lane(i)
	}
	b.match = core.NewMatcher[struct{}, core.Handle](nranks)
	return nil
}

// complete reports h done at the lane's current time, from an event: the
// scheduler must not be re-entered from inside its own issue call.
func (b *nullBackend) complete(lane int, h core.Handle) {
	ln := b.lanes[lane]
	now := ln.Now()
	ln.Schedule(now, func() { b.over(h, now) })
}

func (b *nullBackend) Calc(ev core.CalcEvent) { b.complete(ev.Rank, ev.Handle) }

func (b *nullBackend) Send(ev core.SendEvent) {
	b.complete(ev.Src, ev.Handle)
	ln := b.lanes[ev.Src]
	at := ln.Now().Add(b.la)
	ln.ScheduleOn(ev.Dst, at, func() {
		if recv, ok := b.match.Arrive(ev.Dst, ev.Src, ev.Tag, struct{}{}); ok {
			b.over(recv, at)
		}
	})
}

func (b *nullBackend) Recv(ev core.RecvEvent) {
	if _, ok := b.match.Post(ev.Dst, ev.Src, ev.Tag, ev.Handle); ok {
		b.complete(ev.Dst, ev.Handle)
	}
}

package core

import (
	"slices"
	"testing"
	"testing/quick"

	"atlahs/internal/engine"
	"atlahs/internal/simtime"
)

func TestHandleRoundTrip(t *testing.T) {
	f := func(rank uint16, op int32) bool {
		h := MakeHandle(int(rank), op)
		return h.Rank() == int(rank) && h.Op() == op
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStreamSerialises(t *testing.T) {
	eng := engine.New()
	over := func(Handle, simtime.Time) {}
	rank0, rank1 := NewStreams(eng, over), NewStreams(eng, over)
	s1, e1 := rank0.On(0).Acquire(100, 50)
	if s1 != 100 || e1 != 150 {
		t.Fatalf("first acquire [%v,%v]", s1, e1)
	}
	// same stream: must queue behind
	s2, e2 := rank0.On(0).Acquire(120, 30)
	if s2 != 150 || e2 != 180 {
		t.Fatalf("second acquire [%v,%v], want [150,180]", s2, e2)
	}
	// different stream: parallel
	s3, _ := rank0.On(1).Acquire(120, 30)
	if s3 != 120 {
		t.Fatalf("other stream delayed to %v", s3)
	}
	// different rank: independent
	s4, _ := rank1.On(0).Acquire(0, 10)
	if s4 != 0 {
		t.Fatalf("other rank delayed to %v", s4)
	}
	// the other stream and rank left stream 0 of rank 0 busy until 180
	if s5, _ := rank0.On(0).Acquire(0, 0); s5 != 180 {
		t.Fatalf("stream 0 of rank 0 free at %v, want 180", s5)
	}
}

// TestStreamCompletesInOrder: completions reported through a stream fire
// one event each, at their own times, oldest first — across two streams of
// one rank whose work overlaps, each in its own order — and a completion
// due before the one reported ahead of it on the same stream panics.
func TestStreamCompletesInOrder(t *testing.T) {
	eng := engine.New()
	type done struct {
		h  Handle
		at simtime.Time
	}
	var got []done
	rank := NewStreams(eng, func(h Handle, at simtime.Time) {
		if at != eng.Now() {
			t.Errorf("op %d reported over at %v, the clock reads %v", h.Op(), at, eng.Now())
		}
		got = append(got, done{h, at})
	})
	a, b := rank.On(0), rank.On(7)
	if rank.On(0) != a || a == b {
		t.Fatal("On must return one stream per cpu id")
	}
	place := func(s *Stream, op int32, from simtime.Time, dur simtime.Duration) {
		_, end := s.Acquire(from, dur)
		s.Complete(MakeHandle(3, op), end)
	}
	place(a, 0, 0, 100) // a: [0,100)
	place(b, 1, 0, 30)  // b overlaps a: [0,30)
	place(a, 2, 10, 50) // a, queued: [100,150)
	place(b, 3, 30, 70) // b: [30,100) — ends with op 0, reported after it
	place(a, 4, 0, 0)   // a, zero-length at 150: same instant as op 2
	if a.Pending() != 3 || b.Pending() != 2 || rank.Pending() != 5 {
		t.Fatalf("pending %d + %d, %d in all", a.Pending(), b.Pending(), rank.Pending())
	}
	eng.Run()
	want := []done{{MakeHandle(3, 1), 30}, {MakeHandle(3, 0), 100}, {MakeHandle(3, 3), 100}, {MakeHandle(3, 2), 150}, {MakeHandle(3, 4), 150}}
	if !slices.Equal(got, want) {
		t.Fatalf("completions %v, want %v", got, want)
	}
	if rank.Pending() != 0 || eng.Processed != 5 {
		t.Fatalf("%d pending after %d events", rank.Pending(), eng.Processed)
	}

	a.Complete(MakeHandle(3, 5), 400)
	defer func() {
		if recover() == nil {
			t.Fatal("a completion due before its predecessor did not panic")
		}
	}()
	a.Complete(MakeHandle(3, 6), 399)
}

func TestMatcherBasicOrder(t *testing.T) {
	m := NewMatcher[int, string](2)
	// message first, then recv
	if _, ok := m.Arrive(1, 0, 7, 100); ok {
		t.Fatal("matched with nothing posted")
	}
	msg, ok := m.Post(1, 0, 7, "r1")
	if !ok || msg != 100 {
		t.Fatalf("post did not match queued msg: %v %v", msg, ok)
	}
	// recv first, then message
	if _, ok := m.Post(1, 0, 8, "r2"); ok {
		t.Fatal("matched with nothing arrived")
	}
	rv, ok := m.Arrive(1, 0, 8, 200)
	if !ok || rv != "r2" {
		t.Fatalf("arrive did not match posted recv: %v %v", rv, ok)
	}
}

func TestMatcherFIFOWithinTag(t *testing.T) {
	m := NewMatcher[int, string](1)
	m.Arrive(0, 0, 5, 1)
	m.Arrive(0, 0, 5, 2)
	msg1, _ := m.Post(0, 0, 5, "a")
	msg2, _ := m.Post(0, 0, 5, "b")
	if msg1 != 1 || msg2 != 2 {
		t.Fatalf("FIFO violated: %d then %d", msg1, msg2)
	}
}

func TestMatcherTagSelectivity(t *testing.T) {
	m := NewMatcher[int, string](1)
	m.Arrive(0, 0, 5, 55)
	if _, ok := m.Post(0, 0, 6, "wrongtag"); ok {
		t.Fatal("matched wrong tag")
	}
	msg, ok := m.Post(0, 0, 5, "right")
	if !ok || msg != 55 {
		t.Fatal("exact tag failed after wrong-tag post")
	}
	// the wrong-tag recv is still posted
	rv, ok := m.Arrive(0, 0, 6, 66)
	if !ok || rv != "wrongtag" {
		t.Fatal("queued recv lost")
	}
}

func TestMatcherWildcard(t *testing.T) {
	m := NewMatcher[int, string](1)
	m.Post(0, 0, TagAny, "any")
	rv, ok := m.Arrive(0, 0, 12345, 9)
	if !ok || rv != "any" {
		t.Fatal("wildcard recv did not match")
	}
	// wildcard post matching queued message
	m.Arrive(0, 0, 777, 10)
	msg, ok := m.Post(0, 0, TagAny, "any2")
	if !ok || msg != 10 {
		t.Fatal("wildcard post did not match queued msg")
	}
}

func TestMatcherPerSourceIsolation(t *testing.T) {
	m := NewMatcher[int, string](3)
	m.Arrive(2, 0, 1, 100)
	if _, ok := m.Post(2, 1, 1, "fromOther"); ok {
		t.Fatal("matched message from different source")
	}
	if a, p := m.Pending(); a != 1 || p != 1 {
		t.Fatalf("pending counts: arrived=%d posted=%d", a, p)
	}
}

// Property: arrivals and posts pair up exactly when counts per (src,tag)
// agree; pending counts reflect the imbalance.
func TestMatcherConservationProperty(t *testing.T) {
	f := func(ops []bool) bool {
		m := NewMatcher[int, int](1)
		matched := 0
		arrived := 0
		for i, isArrive := range ops {
			if isArrive {
				if _, ok := m.Arrive(0, 0, 0, i); ok {
					matched++
				} else {
					arrived++
				}
			} else {
				if _, ok := m.Post(0, 0, 0, i); ok {
					matched++
					arrived--
				}
			}
			// a matched pair consumes one from each queue; queues can never
			// both be non-empty for the same (src,tag)
			if a, p := m.Pending(); a > 0 && p > 0 {
				return false
			}
		}
		a, _ := m.Pending()
		return a == arrived
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTagAnyMatchesGoal(t *testing.T) {
	if TagAny != -1 {
		t.Fatal("TagAny must be -1 to mirror goal.AnyTag")
	}
}

// TestMatcherDropsWhatItRemoves: removing a matched entry must not leave
// its payload in the queue's spare slot, where it would keep a record the
// backend has recycled reachable (and hide a use after recycling).
func TestMatcherDropsWhatItRemoves(t *testing.T) {
	m := NewMatcher[*int, *string](1)
	a, b := new(int), new(int)
	m.Arrive(0, 0, 1, a)
	m.Arrive(0, 0, 2, b)
	if got, ok := m.Post(0, 0, 1, nil); !ok || got != a {
		t.Fatal("first message not matched")
	}
	q := m.dsts[0].arrived[0]
	if len(q) != 1 || q[0].msg != b {
		t.Fatalf("queue after the match: %v", q)
	}
	if spare := q[:2][1]; spare.msg != nil || spare.tag != 0 {
		t.Fatalf("vacated slot still holds %+v", spare)
	}
	r1, r2 := new(string), new(string)
	m.Post(0, 0, 7, r1)
	m.Post(0, 0, 8, r2)
	if got, ok := m.Arrive(0, 0, 7, nil); !ok || got != r1 {
		t.Fatal("first receive not matched")
	}
	if spare := m.dsts[0].posted[0][:2][1]; spare.recv != nil || spare.tag != 0 {
		t.Fatalf("vacated slot still holds %+v", spare)
	}
}

// A matcher reset for fewer ranks and then more keeps every queue's
// storage: matching through it again allocates nothing.
func TestMatcherResetKeepsQueues(t *testing.T) {
	m := NewMatcher[int, int](4)
	traffic := func() {
		for src := 0; src < 4; src++ {
			for dst := 0; dst < 4; dst++ {
				if src != dst {
					m.Arrive(dst, src, 1, src)
					m.Arrive(dst, src, 2, src)
					m.Post(dst, src, TagAny, dst)
					m.Post(dst, src, 2, dst)
				}
			}
		}
	}
	traffic()
	m.Reset(2)
	m.Reset(4)
	if got := testing.AllocsPerRun(10, func() { traffic(); m.Reset(4) }); got != 0 {
		t.Fatalf("matching through a reset matcher allocated %v times", got)
	}
	if a, p := m.Pending(); a != 0 || p != 0 {
		t.Fatalf("matcher holds %d messages and %d receives", a, p)
	}
}

// A rebound stream starts idle on its new lane and callback; rebinding one
// with a completion pending panics.
func TestStreamRebind(t *testing.T) {
	first, second := engine.New(), engine.New()
	var got []Handle
	s := NewStream(first, func(h Handle, _ simtime.Time) { t.Fatalf("completion %v reported to the old callback", h) })
	s.Acquire(0, 5)
	s.Rebind(second, func(h Handle, at simtime.Time) { got = append(got, h) })
	if start, end := s.Acquire(2, 3); start != 2 || end != 5 {
		t.Fatalf("rebound stream reserved [%v, %v), want [2, 5)", start, end)
	}
	s.Complete(MakeHandle(0, 7), 5)
	second.Run()
	if len(got) != 1 || got[0] != MakeHandle(0, 7) {
		t.Fatalf("completions %v", got)
	}
	s.Complete(MakeHandle(0, 8), 6)
	defer func() {
		if recover() == nil {
			t.Fatal("rebinding a stream with a completion pending did not panic")
		}
	}()
	s.Rebind(first, nil)
}

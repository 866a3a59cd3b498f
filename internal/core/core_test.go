package core

import (
	"testing"
	"testing/quick"

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

func TestStreamTableSerialises(t *testing.T) {
	st := NewStreamTable(2)
	s1, e1 := st.Acquire(0, 0, 100, 50)
	if s1 != 100 || e1 != 150 {
		t.Fatalf("first acquire [%v,%v]", s1, e1)
	}
	// same stream: must queue behind
	s2, e2 := st.Acquire(0, 0, 120, 30)
	if s2 != 150 || e2 != 180 {
		t.Fatalf("second acquire [%v,%v], want [150,180]", s2, e2)
	}
	// different stream: parallel
	s3, _ := st.Acquire(0, 1, 120, 30)
	if s3 != 120 {
		t.Fatalf("other stream delayed to %v", s3)
	}
	// different rank: independent
	s4, _ := st.Acquire(1, 0, 0, 10)
	if s4 != 0 {
		t.Fatalf("other rank delayed to %v", s4)
	}
	// the other stream and rank left stream 0 of rank 0 busy until 180
	if s5, _ := st.Acquire(0, 0, 0, 0); s5 != 180 {
		t.Fatalf("stream 0 of rank 0 free at %v, want 180", s5)
	}
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
	if a, p := pending(m, 2); a != 1 || p != 1 {
		t.Fatalf("pending counts: arrived=%d posted=%d", a, p)
	}
}

// pending counts the unmatched arrived messages and posted receives at dst.
func pending[M, R any](m *Matcher[M, R], dst int) (arrived, posted int) {
	for _, q := range m.dsts[dst].arrived {
		arrived += len(q)
	}
	for _, q := range m.dsts[dst].posted {
		posted += len(q)
	}
	return arrived, posted
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
			if a, p := pending(m, 0); a > 0 && p > 0 {
				return false
			}
		}
		a, _ := pending(m, 0)
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

var _ = simtime.Time(0) // keep import symmetry with other backends' tests

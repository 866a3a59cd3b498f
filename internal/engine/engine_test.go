package engine

import (
	"testing"
	"testing/quick"

	"atlahs/internal/simtime"
	"atlahs/internal/xrand"
)

func TestRunOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end = %v, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order %v not FIFO", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	hits := 0
	e.Schedule(1, func() {
		hits++
		e.After(2, func() {
			hits++
			if e.Now() != 3 {
				t.Errorf("nested event at %v, want 3", e.Now())
			}
		})
	})
	e.Run()
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestStop(t *testing.T) {
	e := New()
	ran := 0
	e.Schedule(1, func() { ran++; e.Stop() })
	e.Schedule(2, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 after Stop", ran)
	}
	// The event Stop cut off stays queued: the next Run executes it.
	e.Run()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2 after resuming", ran)
	}
}

// TestReserveKeepsQueuedEvents: Reserve after events were scheduled (a
// backend's Setup may have) moves them to the larger queue in order.
func TestReserveKeepsQueuedEvents(t *testing.T) {
	e := New()
	var fired []simtime.Time
	for _, at := range []simtime.Time{7, 3, 5} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.Reserve(64)
	e.Run()
	if len(fired) != 3 || fired[0] != 3 || fired[1] != 5 || fired[2] != 7 {
		t.Fatalf("fired %v, want [3 5 7]", fired)
	}
}

func TestReset(t *testing.T) {
	e := New()
	stale := false
	e.Schedule(5, e.Stop)
	e.Schedule(6, func() { stale = true })
	e.Run()
	e.Reset()
	if e.Now() != 0 || e.Processed != 0 {
		t.Fatal("Reset did not clear state")
	}
	ran := false
	e.Schedule(1, func() { ran = true })
	e.Run()
	if !ran || stale {
		t.Fatalf("after Reset: new event ran = %v, discarded event ran = %v", ran, stale)
	}
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order.
func TestMonotonicProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := xrand.New(seed)
		e := New()
		cnt := int(n%64) + 1
		var seen []simtime.Time
		for i := 0; i < cnt; i++ {
			at := simtime.Time(rng.Int63n(1000))
			e.Schedule(at, func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		if len(seen) != cnt {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := New()
	rng := xrand.New(42)
	b.ReportAllocs()
	// self-perpetuating event chain with fan-out 1, random future offsets
	var step func()
	remaining := b.N
	step = func() {
		remaining--
		if remaining > 0 {
			e.After(simtime.Duration(rng.Int63n(100)+1), step)
		}
	}
	e.Schedule(0, step)
	b.ResetTimer()
	e.Run()
}

package engine

import (
	"math/bits"
	"runtime"
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

// mallocs counts the heap objects f allocates exactly (AllocsPerRun
// truncates a mean to an integer), on one P, as AllocsPerRun does.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// hold is the hold model: every event schedules one successor, at the
// next offset of a fixed cycle, so as many events stay pending as were
// seeded. Its one handler is bound once, so the model allocates nothing.
type hold struct {
	e       *Engine
	offsets []simtime.Duration
	k       int // next offset
	left    int // events to run before Stop
	fn      Handler
}

func newHold(e *Engine, offsets []simtime.Duration) *hold {
	h := &hold{e: e, offsets: offsets}
	h.fn = h.step
	return h
}

func (h *hold) after() {
	h.e.After(h.offsets[h.k], h.fn)
	h.k = (h.k + 1) % len(h.offsets)
}

func (h *hold) step() {
	h.after()
	if h.left--; h.left == 0 {
		h.e.Stop()
	}
}

// seed starts the cycle again and schedules n events from now.
func (h *hold) seed(n int) {
	h.k = 0
	for range n {
		h.after()
	}
}

// run executes n events and returns with as many pending as before.
func (h *hold) run(n int) simtime.Time {
	h.left = n
	return h.e.Run()
}

// packetOffsets are a packet flow's fixed offsets: a 4 160-byte packet's
// and a 64-byte ack's serialisation at 40 ps/B, a 500 ns link, a packet
// and a link together, and a 20 µs retransmission timer.
var packetOffsets = []simtime.Duration{166_400, 500_000, 2_560, 666_400, 500_000, 20_000_000, 166_400, 2_560}

// hpcOffsets are an LGS run's: 37% of events at now, the rest spread
// over 2 µs.
func hpcOffsets() []simtime.Duration {
	rng := xrand.New(7)
	offs := make([]simtime.Duration, 4096)
	for i := range offs {
		if !rng.Bool(0.37) {
			offs[i] = simtime.Duration(rng.Int63n(2_000_000)) + 1
		}
	}
	return offs
}

// TestEngineAllocsWhateverTheClock: once the slab has held the peak, an
// engine that runs on allocates nothing while its clock climbs through
// power after power of two, and neither does a Reset engine replaying
// the same schedule.
func TestEngineAllocsWhateverTheClock(t *testing.T) {
	const pending, events = 64, 200_000
	e := New()
	h := newHold(e, packetOffsets)
	h.seed(pending)
	from := h.run(16 * pending)
	var to simtime.Time
	if n := mallocs(func() { to = h.run(events) }); n != 0 {
		t.Errorf("running on from %v to %v: %d mallocs, want 0", from, to, n)
	}
	if crossed := bits.Len64(uint64(to)) - bits.Len64(uint64(from)); crossed < 6 {
		t.Fatalf("clock went from %v to %v: %d powers of two, want at least 6", from, to, crossed)
	}
	if n := mallocs(func() {
		e.Reset()
		h.seed(pending)
		h.run(16*pending + events)
	}); n != 0 {
		t.Errorf("replaying after Reset: %d mallocs, want 0", n)
	}
	if got := e.Stats().PeakPending; got != pending {
		t.Fatalf("PeakPending %d, want %d", got, pending)
	}
}

// BenchmarkEngineQueue runs the serial engine's queue at the depths the
// benchmark workloads reach (atlahs_engine_peak_pending): a packet run's
// 64 pending events at fixed offsets, an LGS run's 2 849 with 37% at now,
// and the service's all-to-all, which seeds 1 355 events at t = 0 and
// runs each one's successor.
func BenchmarkEngineQueue(b *testing.B) {
	const batch = 1000
	for _, c := range []struct {
		name    string
		pending int
		offsets []simtime.Duration
	}{
		{"storage-64", 64, packetOffsets},
		{"hpc-2849", 2849, hpcOffsets()},
	} {
		b.Run(c.name, func(b *testing.B) {
			h := newHold(New(), c.offsets)
			h.seed(c.pending)
			h.run(c.pending)
			b.ReportAllocs()
			for b.Loop() {
				h.run(batch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/event")
		})
	}
	b.Run("svc-burst-1355", func(b *testing.B) {
		const burst = 1355
		e := New()
		k := 0
		done := func() {}
		first := func() { e.After(packetOffsets[k%len(packetOffsets)], done); k++ }
		b.ReportAllocs()
		for b.Loop() {
			e.Reset()
			for range burst {
				e.Schedule(0, first)
			}
			e.Run()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*burst), "ns/event")
	})
}

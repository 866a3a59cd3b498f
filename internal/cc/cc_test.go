package cc

import (
	"testing"
	"testing/quick"

	"atlahs/internal/simtime"
	"atlahs/internal/xrand"
)

func params() Params {
	return Params{
		MTU:     4096,
		BaseRTT: 8 * simtime.Microsecond,
		BDP:     200 * 1024,
	}
}

func TestNewControllers(t *testing.T) {
	for _, name := range []string{"mprdma", "swift", "dctcp", "MPRDMA", "Swift"} {
		c, err := New(name, params())
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if c.Window() < params().MTU {
			t.Fatalf("%s initial window %d < MTU", name, c.Window())
		}
	}
	if _, err := New("bogus", params()); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := New("ndp", params()); err == nil {
		t.Fatal("ndp should not be a window controller")
	}
	if _, err := New("mprdma", Params{}); err == nil {
		t.Fatal("zero MTU accepted")
	}
}

func TestIsReceiverDriven(t *testing.T) {
	if !IsReceiverDriven("ndp") || !IsReceiverDriven("NDP") {
		t.Fatal("ndp must be receiver driven")
	}
	if IsReceiverDriven("swift") {
		t.Fatal("swift is not receiver driven")
	}
}

func TestMPRDMAIncreaseDecrease(t *testing.T) {
	c, _ := New("mprdma", params())
	w0 := c.Window()
	for i := 0; i < 50; i++ {
		c.OnAck(simtime.Time(i), Feedback{AckedBytes: 4096, ECNMarked: false, RTT: 8 * simtime.Microsecond})
	}
	if c.Window() <= w0 {
		t.Fatalf("no additive increase: %d -> %d", w0, c.Window())
	}
	wUp := c.Window()
	for i := 0; i < 200; i++ {
		c.OnAck(simtime.Time(i), Feedback{AckedBytes: 4096, ECNMarked: true, RTT: 8 * simtime.Microsecond})
	}
	if c.Window() >= wUp {
		t.Fatalf("no decrease under marks: %d -> %d", wUp, c.Window())
	}
	if c.Window() < params().MTU {
		t.Fatalf("window below one MTU: %d", c.Window())
	}
}

func TestSwiftDelayResponse(t *testing.T) {
	p := params()
	c, _ := New("swift", p)
	w0 := c.Window()
	// below-target RTTs grow the window
	for i := 0; i < 50; i++ {
		c.OnAck(simtime.Time(i)*simtime.Time(p.BaseRTT), Feedback{AckedBytes: 4096, RTT: p.BaseRTT})
	}
	if c.Window() <= w0 {
		t.Fatalf("no growth below target: %d -> %d", w0, c.Window())
	}
	// far-above-target RTTs shrink it (decreases rate-limited to 1/RTT)
	wUp := c.Window()
	now := simtime.Time(1000 * p.BaseRTT)
	for i := 0; i < 50; i++ {
		c.OnAck(now, Feedback{AckedBytes: 4096, RTT: 10 * p.BaseRTT})
		now = now.Add(2 * p.BaseRTT)
	}
	if c.Window() >= wUp {
		t.Fatalf("no decrease above target: %d -> %d", wUp, c.Window())
	}
}

func TestSwiftDecreaseRateLimited(t *testing.T) {
	p := params()
	c, _ := New("swift", p)
	now := simtime.Time(100 * p.BaseRTT)
	c.OnAck(now, Feedback{AckedBytes: 4096, RTT: 10 * p.BaseRTT})
	w1 := c.Window()
	// immediately after a decrease, another high-delay ACK must not decrease again
	c.OnAck(now.Add(1), Feedback{AckedBytes: 4096, RTT: 10 * p.BaseRTT})
	if c.Window() != w1 {
		t.Fatalf("second decrease within one RTT: %d -> %d", w1, c.Window())
	}
}

func TestDCTCPAlphaConvergence(t *testing.T) {
	p := params()
	c, _ := New("dctcp", p)
	// saturate with fully marked windows: window must shrink towards 1 MTU
	for i := 0; i < 5000; i++ {
		c.OnAck(simtime.Time(i), Feedback{AckedBytes: p.MTU, ECNMarked: true, RTT: p.BaseRTT})
	}
	if c.Window() > 4*p.MTU {
		t.Fatalf("dctcp did not shrink under full marking: %d", c.Window())
	}
	// clean windows: must grow again
	w := c.Window()
	for i := 0; i < 5000; i++ {
		c.OnAck(simtime.Time(i), Feedback{AckedBytes: p.MTU, ECNMarked: false, RTT: p.BaseRTT})
	}
	if c.Window() <= w {
		t.Fatalf("dctcp did not regrow: %d -> %d", w, c.Window())
	}
}

func TestTimeoutCollapsesWindow(t *testing.T) {
	for _, name := range []string{"mprdma", "swift", "dctcp"} {
		c, _ := New(name, params())
		c.OnTimeout(0)
		if c.Window() != params().MTU {
			t.Fatalf("%s window after timeout = %d, want %d", name, c.Window(), params().MTU)
		}
	}
}

// Property: windows stay within [MTU, maxWin] under arbitrary feedback.
func TestWindowBoundsProperty(t *testing.T) {
	p := params()
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		for _, name := range []string{"mprdma", "swift", "dctcp"} {
			c, err := New(name, p)
			if err != nil {
				return false
			}
			now := simtime.Time(0)
			for i := 0; i < 500; i++ {
				now = now.Add(simtime.Duration(rng.Int63n(int64(p.BaseRTT))))
				if rng.Bool(0.02) {
					c.OnTimeout(now)
				} else {
					c.OnAck(now, Feedback{
						AckedBytes: p.MTU,
						ECNMarked:  rng.Bool(0.3),
						RTT:        p.BaseRTT + simtime.Duration(rng.Int63n(int64(4*p.BaseRTT))),
					})
				}
				w := c.Window()
				if w < p.MTU || w > 4*p.BDP {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxWinDefault(t *testing.T) {
	p := Params{MTU: 1000}
	if p.maxWin() != 256*1000 {
		t.Fatalf("default maxWin without BDP = %d", p.maxWin())
	}
	p.BDP = 10000
	if p.maxWin() != 40000 {
		t.Fatalf("default maxWin with BDP = %d", p.maxWin())
	}
}

func TestControllerNames(t *testing.T) {
	for _, name := range []string{"mprdma", "swift", "dctcp"} {
		c, _ := New(name, params())
		if c.Name() != name {
			t.Fatalf("Name() = %q, want %q", c.Name(), name)
		}
	}
}

// A Reset controller must be indistinguishable from a new one: pktnet
// reuses one controller for every message a flow record carries.
func TestResetEqualsNew(t *testing.T) {
	drive := func(c Controller, rng *xrand.RNG, steps int, check func(int64)) {
		for i := 0; i < steps; i++ {
			now := simtime.Time(i) * simtime.Time(simtime.Microsecond)
			if rng.Intn(16) == 0 {
				c.OnTimeout(now)
			} else {
				c.OnAck(now, Feedback{AckedBytes: 4096, ECNMarked: rng.Intn(3) == 0,
					RTT: simtime.Duration(4+rng.Intn(40)) * simtime.Microsecond})
			}
			check(c.Window())
		}
	}
	next := Params{MTU: 1500, BaseRTT: 3 * simtime.Microsecond, BDP: 90 * 1024}
	for _, name := range []string{"mprdma", "swift", "dctcp"} {
		used, _ := New(name, params())
		drive(used, xrand.New(1), 500, func(int64) {})
		used.Reset(next)
		fresh, _ := New(name, next)
		if used.Window() != fresh.Window() {
			t.Fatalf("%s: window %d after Reset, %d when new", name, used.Window(), fresh.Window())
		}
		var want []int64
		drive(fresh, xrand.New(2), 500, func(w int64) { want = append(want, w) })
		i := 0
		drive(used, xrand.New(2), 500, func(w int64) {
			if w != want[i] {
				t.Fatalf("%s: step %d: window %d after Reset, %d when new", name, i, w, want[i])
			}
			i++
		})
	}
}

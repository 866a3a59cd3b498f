package simtime

import (
	"testing"
	"testing/quick"
)

func TestUnits(t *testing.T) {
	if Nanosecond != 1000 {
		t.Fatalf("Nanosecond = %d, want 1000", Nanosecond)
	}
	if Second != 1e12 {
		t.Fatalf("Second = %d, want 1e12", int64(Second))
	}
}

func TestAddSub(t *testing.T) {
	tm := Time(0).Add(3 * Nanosecond)
	if tm != 3000 {
		t.Fatalf("Add: got %d", tm)
	}
	if d := tm.Sub(Time(1000)); d != 2*Nanosecond {
		t.Fatalf("Sub: got %v", d)
	}
}

func TestFromNanos(t *testing.T) {
	if FromNanos(3700) != 3700*Nanosecond {
		t.Fatal("FromNanos broken")
	}
	// 0.04 ns = 40 ps, the paper's G for 25 GB/s links.
	if FromNanosF(0.04) != 40*Picosecond {
		t.Fatalf("FromNanosF(0.04) = %d, want 40", FromNanosF(0.04))
	}
}

func TestPsPerByte(t *testing.T) {
	// 200 Gb/s = 25 GB/s -> 40 ps per byte (the Alps Slingshot rate).
	if got := PsPerByte(200); got != 40 {
		t.Fatalf("PsPerByte(200) = %d, want 40", got)
	}
	if got := PsPerByte(100); got != 80 {
		t.Fatalf("PsPerByte(100) = %d, want 80", got)
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "500ps"},
		{3700 * Nanosecond, "3.700us"},
		{100 * Nanosecond, "100.000ns"},
		{2 * Second, "2.000000s"},
		{-2 * Second, "-2.000000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestMaxMin(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Fatal("Max broken")
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(base int64, delta int32) bool {
		tm := Time(base % (1 << 50))
		d := Duration(delta)
		return tm.Add(d).Sub(tm) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConversionsRoundTrip(t *testing.T) {
	f := func(ns int32) bool {
		d := FromNanos(int64(ns))
		return int64(d.Nanoseconds()) == int64(ns)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

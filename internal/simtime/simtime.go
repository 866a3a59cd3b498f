// Package simtime defines the simulated-time types used throughout ATLAHS.
//
// Simulated time is an int64 count of picoseconds since the start of the
// simulation. Picosecond resolution keeps every parameter of the paper's
// evaluation exact in integer arithmetic: the Cray Slingshot bandwidth of
// 25 GB/s corresponds to a per-byte gap G = 0.04 ns = 40 ps, and all
// LogGOPS parameters (given in nanoseconds) convert losslessly.
package simtime

import "fmt"

// Time is an absolute simulated timestamp in picoseconds.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Convenient duration units.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Never is a sentinel Time later than any reachable simulation time.
const Never Time = 1<<63 - 1

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Nanoseconds returns the time as float64 nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Seconds returns the time as float64 seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds returns the duration as float64 nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Microseconds returns the duration as float64 microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Seconds returns the duration as float64 seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// FromNanos converts a nanosecond count to a Duration.
func FromNanos(ns int64) Duration { return Duration(ns) * Nanosecond }

// FromNanosF converts fractional nanoseconds to a Duration, rounding to the
// nearest picosecond.
func FromNanosF(ns float64) Duration { return Duration(ns*float64(Nanosecond) + 0.5) }

// String formats a duration with an adaptive unit, e.g. "3.700us".
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%.3fns", d.Nanoseconds())
	case d < Millisecond:
		return fmt.Sprintf("%.3fus", d.Microseconds())
	case d < Second:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", d.Seconds())
	}
}

// String formats an absolute time like a duration since t=0.
func (t Time) String() string { return Duration(t).String() }

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// PsPerByte returns the per-byte serialisation gap for a link of the given
// bandwidth in gigabits per second. E.g. 200 Gb/s -> 40 ps/B.
func PsPerByte(gbps float64) Duration {
	// 1 byte at 1 Gb/s takes 8 ns = 8000 ps.
	return Duration(8000.0/gbps + 0.5)
}

//go:build !race

package service

// raceEnabled reports whether the tests run under the race detector,
// whose instrumentation and sync.Pool drops change what a call allocates.
const raceEnabled = false

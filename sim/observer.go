package sim

import "atlahs/internal/pktnet"

// RunInfo describes a run as it starts, after the workload and backend are
// resolved.
type RunInfo struct {
	// Backend is the resolved backend name.
	Backend string
	// Stats is the schedule's size accounting (ranks, ops, bytes on the
	// wire, ...).
	Stats ScheduleStats
}

// OpEvent reports one GOAL op's semantic completion.
type OpEvent struct {
	// Rank and Op locate the op in the schedule.
	Rank int
	Op   int32
	// Kind is the op's kind (calc, send, recv).
	Kind OpKind
	// At is the simulated completion time.
	At Time
}

// ProgressEvent is the periodic progress callback (every
// Spec.ProgressEvery completed ops).
type ProgressEvent struct {
	// Done and Total count completed and scheduled ops.
	Done, Total int64
	// At is the simulated time of the completion that triggered the event.
	At Time
}

// NetStats are the packet-level fabric counters (data packets, drops,
// trims, retransmits, ...), reported by backends that track them (pkt).
// Message-level and fluid backends have none — exactly the fidelity trade
// the paper's Fig 12 makes.
type NetStats = pktnet.Stats

// Observer receives streaming callbacks from a run while it executes,
// replacing ad-hoc printing: commands and services render the run's start,
// op completions and progress however they like; what a run measured as a
// whole (makespan, tallies, fabric counters) is reported once, in the
// Result. A run with an Observer is serial whatever Spec.Workers says, so
// every callback comes from the goroutine that called Run, before Run
// returns. Embed NopObserver to implement only the methods you care about.
type Observer interface {
	// RunStarted fires once, before the first event executes.
	RunStarted(RunInfo)
	// OpCompleted fires for every GOAL op at its semantic completion.
	OpCompleted(OpEvent)
	// Progress fires every Spec.ProgressEvery completed ops (never when
	// ProgressEvery is 0).
	Progress(ProgressEvent)
}

// NopObserver implements Observer with no-ops, for embedding.
type NopObserver struct{}

// RunStarted implements Observer.
func (NopObserver) RunStarted(RunInfo) {}

// OpCompleted implements Observer.
func (NopObserver) OpCompleted(OpEvent) {}

// Progress implements Observer.
func (NopObserver) Progress(ProgressEvent) {}

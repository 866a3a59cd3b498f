package engine

// RunStats are an engine's execution counters, accumulated across Run
// calls until Reset. All fields are deterministic for a given schedule
// and engine configuration except the execution-strategy counters
// (InlineWindows, DispatchedWindows, WorkerWakeups), which depend on
// the worker budget; window counts depend only on the lane heads, never
// on workers.
type RunStats struct {
	// Events is the number of events executed.
	Events uint64
	// PeakPending is the high-water mark of queued events: sampled per
	// event on the serial engine, per window (summed across lanes) on the
	// parallel engine.
	PeakPending int
	// Windows is the number of conservative windows executed (parallel
	// engine only).
	Windows uint64
	// WidenedWindows counts windows whose minimum-lane bound the adaptive
	// rule widened past the uniform m1+lookahead window.
	WidenedWindows uint64
	// InlineWindows counts windows run inline on the coordinator (low
	// occupancy or a serial worker budget) with no barrier hand-off.
	InlineWindows uint64
	// DispatchedWindows counts windows executed on the worker pool.
	DispatchedWindows uint64
	// WorkerWakeups is the total worker wakeups sent across dispatched
	// windows — the lane-batching effectiveness measure.
	WorkerWakeups uint64
	// ActiveLanes sums the active-lane count over all windows; divided by
	// Windows it is the mean window occupancy.
	ActiveLanes uint64
	// MaxActiveLanes is the largest single-window active-lane count.
	MaxActiveLanes int
}

// Stats returns the serial engine's counters.
func (e *Engine) Stats() RunStats {
	return RunStats{Events: e.Processed, PeakPending: e.peak}
}

// Stats returns the parallel engine's counters. Like EventsProcessed it
// is only meaningful between windows or after Run.
func (p *ParEngine) Stats() RunStats {
	st := p.stats
	st.Events = p.EventsProcessed()
	return st
}

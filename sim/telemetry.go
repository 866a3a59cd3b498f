package sim

import (
	"atlahs/internal/engine"
	"atlahs/internal/sched"
	"atlahs/internal/telemetry"
	"atlahs/results"
)

// Timeline is a bounded, concurrency-safe run-timeline recorder whose
// Encode emits Chrome trace-event JSON loadable in Perfetto
// (ui.perfetto.dev). Attach one via Spec.Timeline; timestamps are
// simulated time, so the document is deterministic for a deterministic
// run. The alias re-exports internal/telemetry's recorder so callers
// outside the module can construct and drain one.
type Timeline = telemetry.Timeline

// NewTimeline returns a timeline recorder bounded to maxEvents recorded
// events (<= 0 selects the default bound); events past the bound are
// dropped and counted in the encoded document.
func NewTimeline(maxEvents int) *Timeline { return telemetry.NewTimeline(maxEvents) }

// runMetrics folds the engine's and the scheduler's execution counters
// into the run's atlahs.metrics/v1 snapshot. Window counts and
// scheduler depths are deterministic for a given spec; the
// execution-strategy counters (inline vs dispatched windows, worker
// wakeups) describe how this process ran the windows and follow the
// worker budget.
func runMetrics(eng engine.Sim, res *sched.Result) *results.MetricsSnapshot {
	var st engine.RunStats
	switch e := eng.(type) {
	case *engine.Engine:
		st = e.Stats()
	case *engine.ParEngine:
		st = e.Stats()
	}
	reg := telemetry.NewRegistry()
	reg.Counter("atlahs_engine_events_total", "engine events executed").Add(st.Events)
	reg.Gauge("atlahs_engine_peak_pending", "high-water mark of queued engine events").Set(int64(st.PeakPending))
	reg.Counter("atlahs_engine_windows_total", "conservative windows executed (parallel engine)").Add(st.Windows)
	reg.Counter("atlahs_engine_windows_widened_total", "windows the adaptive mode widened past the fixed lookahead bound").Add(st.WidenedWindows)
	reg.Counter("atlahs_engine_windows_inline_total", "windows run inline on the coordinator").Add(st.InlineWindows)
	reg.Counter("atlahs_engine_windows_dispatched_total", "windows dispatched to the worker pool").Add(st.DispatchedWindows)
	reg.Counter("atlahs_engine_worker_wakeups_total", "worker wakeups across dispatched windows").Add(st.WorkerWakeups)
	reg.Counter("atlahs_engine_active_lanes_total", "active-lane count summed over windows").Add(st.ActiveLanes)
	reg.Gauge("atlahs_engine_active_lanes_max", "largest single-window active-lane count").Set(int64(st.MaxActiveLanes))
	reg.Gauge("atlahs_sched_peak_outstanding", "peak simultaneously in-flight ops on any single rank").Set(int64(res.PeakOutstanding))
	return results.MetricsFromPoints(reg.Snapshot())
}

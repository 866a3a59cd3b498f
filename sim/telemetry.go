package sim

import (
	"atlahs/internal/engine"
	"atlahs/internal/sched"
	"atlahs/internal/telemetry"
	"atlahs/results"
)

// Timeline is a bounded run-timeline recorder whose Encode emits Chrome
// trace-event JSON loadable in Perfetto (ui.perfetto.dev). Attach one via
// Spec.Timeline; a run with a Timeline is serial and timestamps are
// simulated time, so the document is deterministic. The recorder is
// written by the goroutine that runs the run; once Run returns, any
// number of goroutines may Encode it at once. The alias re-exports
// internal/telemetry's recorder so callers outside the module can
// construct and drain one.
type Timeline = telemetry.Timeline

// NewTimeline returns a timeline recorder bounded to maxEvents recorded
// events (<= 0 selects the default bound); events past the bound are
// dropped and counted in the encoded document, so a capped recorder keeps
// the first maxEvents completions of the run, the same ones every time.
func NewTimeline(maxEvents int) *Timeline { return telemetry.NewTimeline(maxEvents) }

// runMetrics folds the engine's and the scheduler's execution counters
// into the run's atlahs.metrics/v1 snapshot, one sample each in a fixed
// order. Window counts and scheduler depths are deterministic for a given
// spec; the execution-strategy counters (inline vs dispatched windows,
// worker wakeups) describe how this process ran the windows and follow
// the worker budget.
func runMetrics(eng engine.Sim, res *sched.Result) *results.MetricsSnapshot {
	var st engine.RunStats
	switch e := eng.(type) {
	case *engine.Engine:
		st = e.Stats()
	case *engine.ParEngine:
		st = e.Stats()
	}
	return results.NewMetricsSnapshot([]results.Metric{
		{Name: "atlahs_engine_events_total", Type: "counter", Help: "engine events executed", Value: float64(st.Events)},
		{Name: "atlahs_engine_peak_pending", Type: "gauge", Help: "high-water mark of queued engine events", Value: float64(st.PeakPending)},
		{Name: "atlahs_engine_windows_total", Type: "counter", Help: "conservative windows executed (parallel engine)", Value: float64(st.Windows)},
		{Name: "atlahs_engine_windows_widened_total", Type: "counter", Help: "windows the adaptive mode widened past the fixed lookahead bound", Value: float64(st.WidenedWindows)},
		{Name: "atlahs_engine_windows_inline_total", Type: "counter", Help: "windows run inline on the coordinator", Value: float64(st.InlineWindows)},
		{Name: "atlahs_engine_windows_dispatched_total", Type: "counter", Help: "windows dispatched to the worker pool", Value: float64(st.DispatchedWindows)},
		{Name: "atlahs_engine_worker_wakeups_total", Type: "counter", Help: "worker wakeups across dispatched windows", Value: float64(st.WorkerWakeups)},
		{Name: "atlahs_engine_active_lanes_total", Type: "counter", Help: "active-lane count summed over windows", Value: float64(st.ActiveLanes)},
		{Name: "atlahs_engine_active_lanes_max", Type: "gauge", Help: "largest single-window active-lane count", Value: float64(st.MaxActiveLanes)},
		{Name: "atlahs_sched_peak_outstanding", Type: "gauge", Help: "peak simultaneously in-flight ops on any single rank", Value: float64(res.PeakOutstanding)},
	})
}

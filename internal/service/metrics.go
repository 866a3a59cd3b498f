package service

import (
	"atlahs/internal/telemetry"
	"atlahs/results"
)

// serviceMetrics is the service's metrics registry: admission, cache,
// executor, streaming and run-outcome instruments, plus process-lifetime
// aggregates of the per-run engine counters. One instance lives for the
// service's lifetime and is scraped by GET /metrics.
type serviceMetrics struct {
	reg *telemetry.Registry

	// queueDepth tracks submitted-but-not-started runs per admission
	// class.
	queueDepth *telemetry.GaugeVec
	// runs counts terminal runs by outcome ("done" | "failed").
	runs *telemetry.CounterVec
	// cacheRequests counts submissions by cache verdict: "lookaside"
	// (answered by the wire-bytes fast path), "hit" (answered by the
	// content-addressed index after resolution), "miss" (scheduled a new
	// simulation).
	cacheRequests *telemetry.CounterVec
	// singleflight counts submissions that joined an in-flight run of the
	// same fingerprint instead of simulating again.
	singleflight *telemetry.Counter
	// evictions counts entries dropped past the Cache bound: "run" for
	// the run index, "sweep" for the sweep list.
	evictions *telemetry.CounterVec
	// sseSubscribers tracks attached event-stream subscriptions;
	// sseDropped counts op/progress events discarded to lagging
	// subscribers.
	sseSubscribers *telemetry.Gauge
	sseDropped     *telemetry.Counter
	// execBusy tracks executor slots currently simulating.
	execBusy *telemetry.Gauge
	// runWall observes each executed run's wall clock, in seconds.
	runWall *telemetry.Histogram
	// engineAgg folds each completed run's engine counters
	// (sim.Result.Metrics) into process-lifetime totals, keyed by the
	// run-level metric name.
	engineAgg map[string]*telemetry.Counter
}

// engineAggregates lists the per-run engine/scheduler counters the
// service accumulates across runs. Gauges (peaks, maxima) are per-run
// readings and do not sum meaningfully, so only the counters aggregate.
var engineAggregates = []struct{ name, help string }{
	{"atlahs_engine_events_total", "engine events executed across runs"},
	{"atlahs_engine_windows_total", "conservative windows executed across runs"},
	{"atlahs_engine_windows_widened_total", "adaptively widened windows across runs"},
	{"atlahs_engine_windows_inline_total", "inline-executed windows across runs"},
	{"atlahs_engine_windows_dispatched_total", "pool-dispatched windows across runs"},
	{"atlahs_engine_worker_wakeups_total", "worker wakeups across runs"},
	{"atlahs_engine_active_lanes_total", "active-lane window sum across runs"},
}

// newServiceMetrics registers every instrument on a fresh registry, in
// the fixed order the deterministic /metrics scrape exposes.
func newServiceMetrics() *serviceMetrics {
	reg := telemetry.NewRegistry()
	m := &serviceMetrics{
		reg:            reg,
		queueDepth:     reg.GaugeVec("atlahs_service_queue_depth", "submitted-but-not-started runs per admission class", "class"),
		runs:           reg.CounterVec("atlahs_service_runs_total", "terminal runs by outcome", "status"),
		cacheRequests:  reg.CounterVec("atlahs_service_cache_requests_total", "submissions by cache verdict", "result"),
		singleflight:   reg.Counter("atlahs_service_singleflight_joins_total", "submissions that joined an in-flight run"),
		evictions:      reg.CounterVec("atlahs_service_evictions_total", "entries dropped past the cache bound, by kind", "kind"),
		sseSubscribers: reg.Gauge("atlahs_service_sse_subscribers", "attached event-stream subscriptions"),
		sseDropped:     reg.Counter("atlahs_service_sse_dropped_events_total", "op/progress events dropped to lagging subscribers"),
		execBusy:       reg.Gauge("atlahs_service_executors_busy", "executor slots currently simulating"),
		runWall: reg.Histogram("atlahs_service_run_wall_seconds", "wall clock per executed run",
			telemetry.ExpBuckets(0.001, 10, 7)),
		engineAgg: make(map[string]*telemetry.Counter, len(engineAggregates)),
	}
	// Both kinds scrape from the start, at zero.
	m.evictions.With("run")
	m.evictions.With("sweep")
	for _, a := range engineAggregates {
		m.engineAgg[a.name] = reg.Counter(a.name, a.help)
	}
	return m
}

// foldRun accumulates one completed run's engine counters into the
// process-lifetime aggregates.
func (m *serviceMetrics) foldRun(ms *results.MetricsSnapshot) {
	if ms == nil {
		return
	}
	for _, sample := range ms.Metrics {
		if sample.Type != "counter" {
			continue
		}
		if c, ok := m.engineAgg[sample.Name]; ok {
			c.Add(uint64(sample.Value))
		}
	}
}

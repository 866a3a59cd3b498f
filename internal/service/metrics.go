package service

import (
	"maps"
	"slices"

	"atlahs/internal/telemetry"
	"atlahs/results"
)

// serviceMetrics holds the service's instruments: admission, cache,
// executor, streaming and run-outcome counters, plus the engine events
// its runs executed. One instance lives for the service's lifetime;
// snapshot lists them for GET /metrics.
type serviceMetrics struct {
	// runsDone and runsFailed count terminal runs by outcome.
	runsDone, runsFailed telemetry.Counter
	// cacheHit, cacheLookaside and cacheMiss count submissions by cache
	// verdict: answered by the content-addressed index after resolution,
	// answered by the wire-bytes fast path, or scheduled a new simulation.
	cacheHit, cacheLookaside, cacheMiss telemetry.Counter
	// singleflight counts submissions that joined an in-flight run of the
	// same fingerprint instead of simulating again.
	singleflight telemetry.Counter
	// evictedRuns and evictedSweeps count entries dropped past the Cache
	// bound from the run index and from the sweep list.
	evictedRuns, evictedSweeps telemetry.Counter
	// sseSubscribers tracks attached event-stream subscriptions;
	// sseDropped counts op/progress events discarded to lagging
	// subscribers.
	sseSubscribers telemetry.Gauge
	sseDropped     telemetry.Counter
	// execBusy tracks executor slots currently simulating.
	execBusy telemetry.Gauge
	// runWall observes each executed run's wall clock, in seconds.
	runWall *telemetry.Histogram
	// engineEvents sums sim.Result.Events over completed runs.
	engineEvents telemetry.Counter
}

// newServiceMetrics returns zeroed instruments, the run-wall histogram
// over 1 ms to 1 000 s decades.
func newServiceMetrics() *serviceMetrics {
	return &serviceMetrics{runWall: telemetry.NewHistogram(telemetry.ExpBuckets(0.001, 10, 7))}
}

// snapshot lists every family GET /metrics serves, in scrape order: the
// service's metric catalogue. A family with fixed label values lists
// each of them, from zero. Queue depth is read from q at scrape time and
// has one sample per class with queued runs, so a class that drained
// leaves nothing behind. Each instrument is read once; the list is not
// an atomic cut across instruments.
func (m *serviceMetrics) snapshot(q *jobQueue) []results.Metric {
	const (
		depth     = "atlahs_service_queue_depth"
		depthHelp = "submitted-but-not-started runs per admission class"
		runs      = "atlahs_service_runs_total"
		runsHelp  = "terminal runs by outcome"
		cache     = "atlahs_service_cache_requests_total"
		cacheHelp = "submissions by cache verdict"
		evict     = "atlahs_service_evictions_total"
		evictHelp = "entries dropped past the cache bound, by kind"
	)
	depths := q.depths()
	var out []results.Metric
	for _, class := range slices.Sorted(maps.Keys(depths)) {
		out = append(out, results.Metric{Name: depth, Type: "gauge", Help: depthHelp, Label: "class", LabelValue: class, Value: float64(depths[class])})
	}
	out = append(out,
		results.Metric{Name: runs, Type: "counter", Help: runsHelp, Label: "status", LabelValue: "done", Value: float64(m.runsDone.Value())},
		results.Metric{Name: runs, Type: "counter", Help: runsHelp, Label: "status", LabelValue: "failed", Value: float64(m.runsFailed.Value())},
		results.Metric{Name: cache, Type: "counter", Help: cacheHelp, Label: "result", LabelValue: "hit", Value: float64(m.cacheHit.Value())},
		results.Metric{Name: cache, Type: "counter", Help: cacheHelp, Label: "result", LabelValue: "lookaside", Value: float64(m.cacheLookaside.Value())},
		results.Metric{Name: cache, Type: "counter", Help: cacheHelp, Label: "result", LabelValue: "miss", Value: float64(m.cacheMiss.Value())},
		results.Metric{Name: "atlahs_service_singleflight_joins_total", Type: "counter", Help: "submissions that joined an in-flight run", Value: float64(m.singleflight.Value())},
		results.Metric{Name: evict, Type: "counter", Help: evictHelp, Label: "kind", LabelValue: "run", Value: float64(m.evictedRuns.Value())},
		results.Metric{Name: evict, Type: "counter", Help: evictHelp, Label: "kind", LabelValue: "sweep", Value: float64(m.evictedSweeps.Value())},
		results.Metric{Name: "atlahs_service_sse_subscribers", Type: "gauge", Help: "attached event-stream subscriptions", Value: float64(m.sseSubscribers.Value())},
		results.Metric{Name: "atlahs_service_sse_dropped_events_total", Type: "counter", Help: "op/progress events dropped to lagging subscribers", Value: float64(m.sseDropped.Value())},
		results.Metric{Name: "atlahs_service_executors_busy", Type: "gauge", Help: "executor slots currently simulating", Value: float64(m.execBusy.Value())},
		m.runWall.Sample("atlahs_service_run_wall_seconds", "wall clock per executed run"),
		results.Metric{Name: "atlahs_engine_events_total", Type: "counter", Help: "engine events executed across runs", Value: float64(m.engineEvents.Value())},
	)
	return out
}

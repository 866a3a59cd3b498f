package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/sched"
	"atlahs/internal/simtime"
	"atlahs/results"
	"atlahs/sim"
)

// prober times decomposition probes: each call of ms runs f reps times
// inside a span each and returns the median wall time in milliseconds. The
// first error sticks, so a run of probes is checked once at the end.
type prober struct {
	tr   *tracer
	reps int
	err  error
}

func (p *prober) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

func (p *prober) ms(name string, f func() error) float64 {
	var times []float64
	for i := 0; i < p.reps; i++ {
		id := p.tr.begin("probe:"+name, -1, -1)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		p.tr.end(id)
		if err != nil {
			p.fail(fmt.Errorf("probe %s: %w", name, err))
			return 0
		}
		times = append(times, ms(d))
	}
	return median(times)
}

// memStats reads the allocator counters.
func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// liveHeapMB is the heap in use after a collection.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(memStats().HeapAlloc) / (1 << 20)
}

// metricValue sums the samples of a metric family in a metrics snapshot,
// optionally of one label value: the value of counters and gauges, the
// observation count and sum of histograms.
func metricValue(ms *results.MetricsSnapshot, name, labelValue string) (value, count, sum float64) {
	if ms == nil {
		return
	}
	for _, m := range ms.Metrics {
		if m.Name == name && (labelValue == "" || m.LabelValue == labelValue) {
			value += m.Value
			count += float64(m.Count)
			sum += m.Sum
		}
	}
	return
}

// layers runs the decomposition probes of a replay workload and combines
// them with the traced operations into the per-layer metrics. Every probe
// calls one public function of one layer on this workload's own inputs.
func (r *replay) layers(tr *tracer, samples []sample, sz *scale) (map[string]float64, error) {
	c := r.cfg
	m := map[string]float64{}
	pr := &prober{tr: tr, reps: sz.reps}
	timed := pr.ms

	// The operations' own spans and results.
	var walls, events, overhead []float64
	for _, s := range samples {
		if s.res != nil {
			walls = append(walls, ms(s.res.Wall))
			events = append(events, float64(s.res.Events)/s.res.Wall.Seconds())
		}
	}
	runMs := tr.durationsMs("sim.Run")
	m["sim.resolve_ms"] = median(tr.durationsMs("sim.ResolveSpec"))
	m["sim.run_ms"] = median(runMs)
	m["results.encode_json_ms"] = median(tr.durationsMs("service.WriteResultJSON"))
	i := 0
	for _, s := range samples {
		if s.traced && s.res != nil && i < len(runMs) {
			overhead = append(overhead, runMs[i]-ms(s.res.Wall))
			i++
		}
	}
	m["sim.run_overhead_ms"] = median(overhead)
	m["engine.events_per_s"] = median(events)
	m["engine.events_per_op"] = float64(r.want.Events) / float64(r.want.Ops)

	// Frontend: the conversion this workload's input goes through (for the
	// GOAL-replay workloads that is set-up work).
	before := memStats()
	conv := timed("sim.ConvertTrace", func() error {
		_, err := sim.ConvertTrace(r.raw, c.frontend, c.fcfg)
		return err
	})
	m["frontend."+c.frontend+"_convert_ms"] = conv
	m["frontend.convert_mb_per_s"] = float64(len(r.raw)) / 1e6 / (conv / 1e3)
	m["frontend.convert_alloc_mb"] = float64(memStats().TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(pr.reps)

	// GOAL codec and validation on the workload's schedule.
	var parsed, streamed *goal.Schedule
	m["goal.decode_ms"] = timed("goal.ParseBinary", func() (err error) {
		parsed, err = goal.ParseBinary(r.bin)
		return err
	})
	m["goal.decode_stream_ms"] = timed("goal.ReadBinary", func() (err error) {
		streamed, err = goal.ReadBinary(bytes.NewReader(r.bin))
		return err
	})
	if pr.err == nil && !reflect.DeepEqual(parsed, streamed) {
		pr.err = fmt.Errorf("goal.ParseBinary and goal.ReadBinary decode %s differently", c.name)
	}
	streamed = nil
	m["goal.decode_mb_per_s"] = float64(len(r.bin)) / 1e6 / (m["goal.decode_ms"] / 1e3)
	m["goal.validate_ms"] = timed("goal.Validate", func() error { return parsed.Validate() })
	m["goal.encode_ms"] = timed("goal.WriteBinary", func() error {
		var buf bytes.Buffer
		return goal.WriteBinary(&buf, parsed)
	})
	held := liveHeapMB()
	runtime.KeepAlive(parsed)
	parsed = nil
	m["goal.sched_live_mb"] = held - liveHeapMB()

	// Spec codec and content address.
	memSpec := sim.Spec{Workload: sim.Workload{Schedule: r.sched}, Backend: c.backend, Config: c.config, Seed: r.seed}
	m["sim.fingerprint_ms"] = timed("sim.Fingerprint", func() error {
		_, err := sim.Fingerprint(memSpec)
		return err
	})
	var wire []byte
	m["sim.marshal_spec_us"] = 1e3 * timed("sim.MarshalSpec", func() (err error) {
		wire, err = sim.MarshalSpec(r.spec)
		return err
	})
	m["sim.unmarshal_spec_us"] = 1e3 * timed("sim.UnmarshalSpec", func() error {
		_, err := sim.UnmarshalSpec(wire)
		return err
	})

	// Scheduler and engine floor: the schedule on a backend that costs
	// nothing, serial and on two lanes' workers.
	la := simtime.Microsecond
	if lgs, ok := c.config.(sim.LGSConfig); ok {
		la = lgs.Params.L
	}
	ops := r.sched.ComputeStats().Ops
	nullRun := func(name string, mk func() engine.Sim) float64 {
		return timed(name, func() error {
			res, err := sched.Run(mk(), r.sched, &nullBackend{la: la}, sched.Options{})
			if err == nil && res.Ops != ops {
				err = fmt.Errorf("null backend completed %d of %d ops", res.Ops, ops)
			}
			return err
		})
	}
	m["sched.null_run_ms"] = nullRun("sched.Run:null", func() engine.Sim { return engine.New() })
	m["sched.null_run_par_ms"] = nullRun("sched.Run:null-par", func() engine.Sim {
		return engine.NewParallel(r.sched.NumRanks(), 2, la)
	})

	// Backend self time: the serial run's wall minus that floor.
	serial := walls
	if c.backend == "lgs" {
		var serialWall, parWall []float64
		var par *sim.Result
		for _, workers := range []int{1, 2} {
			spec := memSpec
			spec.Workers = workers
			timed(fmt.Sprintf("sim.Run:workers-%d", workers), func() error {
				res, err := sim.Run(context.Background(), spec)
				if err != nil {
					return err
				}
				if workers == 1 {
					serialWall = append(serialWall, ms(res.Wall))
				} else {
					parWall, par = append(parWall, ms(res.Wall)), res
				}
				return nil
			})
		}
		serial = serialWall
		if par != nil {
			m["engine.windows"], _, _ = metricValue(par.Metrics, "atlahs_engine_windows_total", "")
			// Windows handed to the worker pool are the ones that end in a
			// barrier the coordinator waits at.
			m["engine.barrier_stalls"], _, _ = metricValue(par.Metrics, "atlahs_engine_windows_dispatched_total", "")
			m["engine.par_speedup"] = median(serialWall) / median(parWall)
		}
		m["backend.lgs_self_ms"] = median(serial) - m["sched.null_run_ms"]
	} else if net := r.want.Net; net != nil {
		m["pktnet.self_ms"] = median(serial) - m["sched.null_run_ms"]
		m["pktnet.pkts_per_s"] = float64(net.PktsSent) / (median(serial) / 1e3)
		m["pktnet.events_per_msg"] = float64(r.want.Events) / float64(r.want.Sched.Sends)
	}
	m["fluid.run_ms"] = r.fluidMs

	// Timeline recording on and off.
	off := timed("sim.Run:timeline-off", func() error {
		_, err := sim.Run(context.Background(), memSpec)
		return err
	})
	on := timed("sim.Run:timeline-on", func() error {
		spec := memSpec
		spec.Timeline = sim.NewTimeline(0)
		_, err := sim.Run(context.Background(), spec)
		return err
	})
	m["telemetry.timeline_overhead_pct"] = 100 * (on - off) / off

	// Result store: artifact plus sidecar, as the service persists a run.
	m["results.store_save_ms"] = storeSaveMs(pr, r.want)
	return m, pr.err
}

// storeSaveMs times results.Store.Save plus SaveMeta of one run's
// per-rank table into a scratch directory.
func storeSaveMs(pr *prober, res *sim.Result) float64 {
	dir, err := scratchDir("store")
	if err != nil {
		pr.fail(err)
		return 0
	}
	defer os.RemoveAll(dir)
	store, err := results.NewStore(dir)
	if err != nil {
		pr.fail(err)
		return 0
	}
	sw := results.NewSweep("r_bench", "bench store probe", "bench")
	sw.AddColumn("rank", results.Int, "")
	sw.AddColumn("end", results.Duration, "ps")
	for rank, end := range res.RankEnd {
		sw.MustAddRow(int64(rank), int64(end))
	}
	return pr.ms("results.Store.Save", func() error {
		if err := store.Save(sw); err != nil {
			return err
		}
		return store.SaveMeta(sw.Name, res)
	})
}

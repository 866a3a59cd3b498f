package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"time"

	"atlahs/internal/experiments"
	"atlahs/internal/goal"
	"atlahs/internal/service"
	"atlahs/internal/workload/hpcapps"
	"atlahs/internal/workload/llm"
	"atlahs/internal/workload/oltp"
	"atlahs/sim"
)

// accSeed generates the fixture err_vs_fluid_pct is computed on. The gap
// between two models of the same schedule is a difference of close
// numbers: on the HPC fixture it swings between 0.1% and 0.5% with the
// generator's compute jitter alone, so a seed-derived fixture could carry
// no bound. Like the repo's validation experiments (fig8, fig10), the
// accuracy fixture pins its seeds; everything that is timed comes from
// -seed.
const accSeed = 1

// replayCfg describes one replay workload: where the raw trace comes
// from, how it becomes the spec one operation resolves and runs, and the
// domain calibration of the fluid reference.
type replayCfg struct {
	name string
	// gen writes the raw application trace for a seed; acc selects the
	// (possibly smaller) accuracy fixture.
	gen      func(seed uint64, sz *scale, acc bool) ([]byte, error)
	frontend string
	fcfg     any
	// viaGoal makes the operation's input the binary GOAL encoding of the
	// converted schedule instead of the raw trace (Schedgen output replayed).
	viaGoal bool
	backend string
	config  any
	workers int
	dom     experiments.Domain
	// hostsPerToR shapes the fluid reference's fat tree.
	hostsPerToR int
}

func replayConfigs() []*replayCfg {
	hpc := func(name string, workers int) *replayCfg {
		return &replayCfg{
			name: name,
			gen: func(seed uint64, sz *scale, acc bool) ([]byte, error) {
				ranks, steps := sz.hpcRanks, sz.hpcSteps
				if acc {
					ranks, steps = sz.accRanks, sz.accSteps
				}
				tr, err := hpcapps.Generate(hpcapps.Config{App: hpcapps.LULESH, Ranks: ranks, Steps: steps, Seed: seed})
				if err != nil {
					return nil, err
				}
				return writeTo(tr)
			},
			frontend: "mpi", viaGoal: true,
			backend: "lgs", config: sim.LGSConfig{Params: sim.HPCParams()}, workers: workers,
			dom: experiments.HPCDomain(), hostsPerToR: 16,
		}
	}
	return []*replayCfg{
		{
			name: "ai-replay-lgs",
			gen: func(seed uint64, sz *scale, _ bool) ([]byte, error) {
				rep, err := llm.Generate(llm.Config{Model: llm.Llama7B(), Par: sz.llmPar, Scale: 1e-3, Seed: seed})
				if err != nil {
					return nil, err
				}
				return writeTo(rep)
			},
			// Two GPUs per node: at the frontend's default of four, this
			// trace's inter-node traffic is off the critical path and LGS
			// and the fluid reference agree to the picosecond.
			frontend: "nsys", fcfg: sim.NsysConfig{GPUsPerNode: 2},
			backend: "lgs", config: sim.LGSConfig{Params: sim.AIParams()}, workers: 1,
			dom: experiments.AIDomain(), hostsPerToR: 4,
		},
		hpc("hpc-goal-lgs", 1),
		hpc("hpc-goal-lgs-par", 2),
		{
			name: "storage-replay-pkt",
			gen: func(seed uint64, sz *scale, _ bool) ([]byte, error) {
				return writeTo(oltp.GenerateFinancial(oltp.FinancialConfig{Ops: sz.spcOps, Seed: seed}))
			},
			frontend: "spc",
			backend:  "pkt", config: sim.PktConfig{CC: "mprdma"},
			dom: experiments.AIDomain(), hostsPerToR: 4,
		},
	}
}

// writeTo serialises a trace through its WriteTo method.
func writeTo(w io.WriterTo) ([]byte, error) {
	var buf bytes.Buffer
	_, err := w.WriteTo(&buf)
	return buf.Bytes(), err
}

// replay is one set-up replay workload.
type replay struct {
	cfg   *replayCfg
	seed  uint64
	raw   []byte        // raw trace bytes
	sched *sim.Schedule // the converted schedule
	bin   []byte        // its binary GOAL encoding
	spec  sim.Spec      // what one operation resolves and runs
	want  *sim.Result   // pinned by the first warm-up operation
	out   bytes.Buffer  // the operation's JSON output

	goalBytesPerOp float64
	errPct         float64
	fluidMs        float64 // host time of the fluid reference run
}

func (c *replayCfg) setup(seed uint64, sz *scale) (instance, error) {
	r := &replay{cfg: c, seed: seed}
	var err error
	if r.raw, err = c.gen(seed, sz, false); err != nil {
		return nil, err
	}
	if r.sched, err = sim.ConvertTrace(r.raw, c.frontend, c.fcfg); err != nil {
		return nil, err
	}
	var bin bytes.Buffer
	if err = goal.WriteBinary(&bin, r.sched); err != nil {
		return nil, err
	}
	r.bin = bin.Bytes()
	r.goalBytesPerOp = float64(len(r.bin)) / float64(r.sched.ComputeStats().Ops)

	r.spec = sim.Spec{Backend: c.backend, Config: c.config, Workers: c.workers, Seed: seed}
	if c.viaGoal {
		r.spec.GoalBytes = r.bin
	} else {
		r.spec.Trace, r.spec.Frontend, r.spec.FrontendConfig = r.raw, c.frontend, c.fcfg
	}
	if err = r.accuracy(sz); err != nil {
		return nil, err
	}
	for i := 0; i < sz.warmups; i++ {
		if s := r.op(nil, -1-i); s.err != "" {
			return nil, fmt.Errorf("%s: warm-up operation failed: %s", c.name, s.err)
		}
	}
	if c.viaGoal {
		if err = r.checkEngines(); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	return r, nil
}

// accuracy runs the pinned fixture on the workload's backend and on the
// fluid reference (the repo's "measured" stand-in, experiments.RunFluid).
func (r *replay) accuracy(sz *scale) error {
	c := r.cfg
	raw, err := c.gen(accSeed, sz, true)
	if err != nil {
		return err
	}
	sched, err := sim.ConvertTrace(raw, c.frontend, c.fcfg)
	if err != nil {
		return err
	}
	own, err := sim.Run(context.Background(), sim.Spec{
		Workload: sim.Workload{Schedule: sched}, Backend: c.backend, Config: c.config, Seed: accSeed,
	})
	if err != nil {
		return err
	}
	r.errPct, r.fluidMs, err = errVsFluid(sched, own.Runtime, c.hostsPerToR, c.dom)
	return err
}

// errVsFluid returns |makespan - fluid makespan| / fluid in percent and the
// host time of the fluid run.
func errVsFluid(sched *sim.Schedule, makespan sim.Duration, hostsPerToR int, dom experiments.Domain) (pct, wallMs float64, err error) {
	t0 := time.Now()
	tp, err := experiments.FatTree(sched.NumRanks(), hostsPerToR, 1, dom)
	if err != nil {
		return 0, 0, err
	}
	fluid, _, err := experiments.RunFluid(sched, tp, accSeed, dom)
	if err != nil {
		return 0, 0, err
	}
	return 100 * math.Abs(float64(makespan)-float64(fluid)) / float64(fluid), ms(time.Since(t0)), nil
}

// checkEngines runs the spec on the engine the workload does not use and
// requires a bit-identical simulated result: hpc-goal-lgs and
// hpc-goal-lgs-par replay the same bytes and must agree.
func (r *replay) checkEngines() error {
	other := r.spec
	other.Workers = 3 - r.cfg.workers // 1 <-> 2
	res, err := sim.Run(context.Background(), other)
	if err != nil {
		return err
	}
	if res.Parallel == r.want.Parallel {
		return fmt.Errorf("%s: engine cross-check ran the same engine twice", r.cfg.name)
	}
	if res.Runtime != r.want.Runtime || res.Ops != r.want.Ops || res.Events != r.want.Events ||
		!reflect.DeepEqual(res.RankEnd, r.want.RankEnd) {
		return fmt.Errorf("%s: serial and parallel engines disagree: runtime %v vs %v, ops %d vs %d, events %d vs %d",
			r.cfg.name, res.Runtime, r.want.Runtime, res.Ops, r.want.Ops, res.Events, r.want.Events)
	}
	return nil
}

// op is one timed operation: resolve the spec (decode or convert the
// workload, fingerprint it), simulate, and encode the result as JSON. The
// first call pins the simulated outcome every later call must reproduce.
func (r *replay) op(tr *tracer, n int) sample {
	s := sample{traced: tr != nil}
	root := tr.begin("op", -1, n)
	t0 := time.Now()
	res, err := r.do(tr, root, n)
	s.ms = ms(time.Since(t0))
	tr.end(root)
	if err == nil {
		err = r.check(res)
	}
	if err != nil {
		s.err = err.Error()
		return s
	}
	s.res = res
	return s
}

func (r *replay) do(tr *tracer, root, n int) (*sim.Result, error) {
	id := tr.begin("sim.ResolveSpec", root, n)
	pinned, _, err := sim.ResolveSpec(r.spec)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("sim.Run", root, n)
	res, err := sim.Run(context.Background(), pinned)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	r.out.Reset()
	id = tr.begin("service.WriteResultJSON", root, n)
	err = service.WriteResultJSON(&r.out, res)
	tr.end(id)
	return res, err
}

// check holds a result against the pinned one.
func (r *replay) check(res *sim.Result) error {
	if r.want == nil {
		if res.Ops != r.sched.ComputeStats().Ops || res.Done.Total() != res.Ops {
			return fmt.Errorf("executed %d ops (%d tallied) of %d scheduled", res.Ops, res.Done.Total(), r.sched.ComputeStats().Ops)
		}
		r.want = res
		return nil
	}
	if res.Runtime != r.want.Runtime || res.Ops != r.want.Ops || res.Events != r.want.Events {
		return fmt.Errorf("result drifted: runtime %v ops %d events %d, pinned %v %d %d",
			res.Runtime, res.Ops, res.Events, r.want.Runtime, r.want.Ops, r.want.Events)
	}
	if r.out.Len() == 0 {
		return fmt.Errorf("empty JSON result")
	}
	return nil
}

func (r *replay) run(stop func() bool, tr *tracer) []sample {
	var out []sample
	for n := 0; !stop(); n++ {
		t := tr
		if n%2 == 1 {
			t = nil // every other operation runs untraced: the overhead pair
		}
		out = append(out, r.op(t, n))
	}
	return out
}

func (r *replay) facts() (goalBytesPerOp, errPct float64) { return r.goalBytesPerOp, r.errPct }

func (r *replay) close() {}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

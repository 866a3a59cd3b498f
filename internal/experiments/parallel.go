package experiments

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"atlahs/results"
)

// ForEach runs fn(i) for every i in [0, n) across up to `workers`
// goroutines and returns the first error (by index order among the points
// that ran). A failure stops new points from starting — in-flight ones
// finish — so a broken sweep fails fast instead of burning through the
// remaining configurations. Every configuration point of the evaluation
// figures is an isolated simulation with its own engine and seed, so
// points can fan out freely; callers keep determinism by writing results
// into index i of a pre-sized slice and printing after the join.
func ForEach(workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Report is one computed experiment: every figure/table separates
// computation (ComputeFigX, returning the typed result) from presentation,
// and the result renders either as the paper-style text report or as a
// structured results.Sweep for machine-readable export.
type Report interface {
	// Render writes the text report (byte-identical to the historical
	// streamed output, pinned by the golden suite).
	Render(w io.Writer)
	// Sweep exports the computed data as a typed record set.
	Sweep() *results.Sweep
}

// experiment is one figure or table and its compute function. Every
// function takes the sweep budget for its own configuration-point
// fan-out, so no worker state lives outside the call stack.
type experiment struct {
	name    string
	compute func(Mode, int) (Report, error)
}

// catalogue is every experiment, in paper order.
var catalogue = []experiment{
	{"fig1c", func(m Mode, workers int) (Report, error) { return ComputeFig1C(m, workers) }},
	{"table1", func(m Mode, workers int) (Report, error) { return ComputeTable1(m, workers) }},
	{"fig8", func(m Mode, workers int) (Report, error) { return ComputeFig8(m, workers) }},
	{"fig9", func(m Mode, workers int) (Report, error) { return ComputeFig9(m, workers) }},
	{"fig10", func(m Mode, workers int) (Report, error) { return ComputeFig10(m, workers) }},
	{"fig11", func(m Mode, workers int) (Report, error) { return ComputeFig11(m, workers) }},
	{"fig12", func(m Mode, workers int) (Report, error) { return ComputeFig12(m, workers) }},
	{"fig13", func(m Mode, workers int) (Report, error) { return ComputeFig13(m, workers) }},
}

// Names lists every experiment RunAll understands, in paper order.
func Names() []string {
	names := make([]string, len(catalogue))
	for i, e := range catalogue {
		names[i] = e.name
	}
	return names
}

// RunAll regenerates the named experiments (all of them when names is
// empty), fanning independent experiments across up to `workers`
// goroutines (workers <= 0 means GOMAXPROCS). The worker budget is split
// between the two fan-out levels — experiments here, configuration points
// inside each experiment — so total concurrency stays near `workers`
// instead of multiplying. The budget is threaded through every call, so
// RunAll is reentrant: concurrent evaluations in one process do not
// interfere.
//
// Each report streams to w in request order as soon as it and every one
// before it are computed, and output stops at the first failed
// experiment. Simulated results are identical for any worker count — only
// wall-clock columns (the host measurements some figures print) vary run
// to run, and under concurrency they additionally measure core contention
// from sibling simulations.
func RunAll(w io.Writer, mode Mode, workers int, names []string) error {
	return fanOut(mode, workers, names, func(name string, rep Report) error {
		if err := RenderTo(w, rep); err != nil {
			return fmt.Errorf("experiments: writing %s output: %w", name, err)
		}
		return nil
	})
}

// Reports computes the named experiments (all of them when names is empty)
// and returns their Reports in request order, fanning out across the
// worker budget exactly like RunAll.
func Reports(mode Mode, workers int, names []string) ([]Report, error) {
	var reps []Report
	err := fanOut(mode, workers, names, func(_ string, rep Report) error {
		reps = append(reps, rep)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reps, nil
}

// fanOut computes the named experiments across the worker budget and hands
// each report to emit, one call at a time, in request order: a report goes
// as soon as it and every one before it are computed. The first failure —
// an experiment's or emit's — stops new experiments from starting, and no
// report after a failed experiment is handed on.
func fanOut(mode Mode, workers int, names []string, emit func(name string, rep Report) error) error {
	exps, outer, inner, err := resolve(workers, names)
	if err != nil {
		return err
	}
	reps := make([]Report, len(exps))
	done := make([]bool, len(exps))
	next := 0 // the first report not yet handed on
	var mu sync.Mutex
	var emitErr error
	return ForEach(outer, len(exps), func(i int) error {
		rep, err := exps[i].compute(mode, inner)
		if err != nil {
			return fmt.Errorf("experiment %s failed: %w", exps[i].name, err)
		}
		mu.Lock()
		defer mu.Unlock()
		reps[i], done[i] = rep, true
		for emitErr == nil && next < len(exps) && done[next] {
			emitErr = emit(exps[next].name, reps[next])
			reps[next] = nil
			next++
		}
		return emitErr
	})
}

// resolve looks names up (defaulting to all experiments) and splits the
// worker budget between the two fan-out levels — experiments at the outer
// level, configuration points inside each — so total concurrency stays
// near `workers` instead of multiplying.
func resolve(workers int, names []string) (exps []experiment, outer, inner int, err error) {
	if len(names) == 0 {
		exps = catalogue
	}
	for _, name := range names {
		i := slices.IndexFunc(catalogue, func(e experiment) bool { return e.name == name })
		if i < 0 {
			return nil, 0, 0, fmt.Errorf("experiments: unknown experiment %q", name)
		}
		exps = append(exps, catalogue[i])
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outer = min(workers, len(exps))
	inner = max(workers/outer, 1)
	return exps, outer, inner, nil
}

// RenderTo renders rep's text report to w and surfaces writer failures
// (full disk, closed pipe) that Render's Fprintf calls discard, so a
// broken sink fails the caller instead of silently truncating the report.
func RenderTo(w io.Writer, rep Report) error {
	ew := &errWriter{w: w}
	rep.Render(ew)
	return ew.err
}

// errWriter passes writes through and remembers the first failure.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}

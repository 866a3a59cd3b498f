package experiments

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
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

// Names lists every experiment RunAll understands, in paper order.
func Names() []string {
	return []string{"fig1c", "table1", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"}
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

// computers maps experiment names to their compute functions. Every
// function takes the sweep budget for its own configuration-point
// fan-out, so no worker state lives outside the call stack.
var computers = map[string]func(Mode, int) (Report, error){
	"fig1c":  func(m Mode, workers int) (Report, error) { return ComputeFig1C(m, workers) },
	"table1": func(m Mode, workers int) (Report, error) { return ComputeTable1(m, workers) },
	"fig8":   func(m Mode, workers int) (Report, error) { return ComputeFig8(m, workers) },
	"fig9":   func(m Mode, workers int) (Report, error) { return ComputeFig9(m, workers) },
	"fig10":  func(m Mode, workers int) (Report, error) { return ComputeFig10(m, workers) },
	"fig11":  func(m Mode, workers int) (Report, error) { return ComputeFig11(m, workers) },
	"fig12":  func(m Mode, workers int) (Report, error) { return ComputeFig12(m, workers) },
	"fig13":  func(m Mode, workers int) (Report, error) { return ComputeFig13(m, workers) },
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
// With one outer worker, each experiment's report streams to w as soon as
// that experiment finishes computing; with more, each experiment renders
// into its own buffer and buffers flush in request order. Simulated
// results are identical either way — only wall-clock columns (the host
// measurements some figures print) vary run to run, and under concurrency
// they additionally measure core contention from sibling simulations.
func RunAll(w io.Writer, mode Mode, workers int, names []string) error {
	names, outer, inner, err := resolve(workers, names)
	if err != nil {
		return err
	}
	if outer <= 1 {
		// Serial outer level: stream incrementally, as the CLI always has.
		for _, name := range names {
			rep, err := computers[name](mode, inner)
			if err != nil {
				return fmt.Errorf("experiment %s failed: %w", name, err)
			}
			if err := RenderTo(w, rep); err != nil {
				return fmt.Errorf("experiments: writing %s output: %w", name, err)
			}
		}
		return nil
	}
	bufs := make([]bytes.Buffer, len(names))
	flushed := 0
	var mu sync.Mutex
	var writeErr error
	flush := func(done []bool) { // caller holds mu
		for writeErr == nil && flushed < len(names) && done[flushed] {
			if _, err := io.Copy(w, &bufs[flushed]); err != nil {
				writeErr = fmt.Errorf("experiments: writing %s output: %w", names[flushed], err)
				return
			}
			flushed++
		}
	}
	done := make([]bool, len(names))
	err = ForEach(outer, len(names), func(i int) error {
		rep, ferr := computers[names[i]](mode, inner)
		if ferr == nil {
			rep.Render(&bufs[i])
		}
		mu.Lock()
		done[i] = true
		flush(done)
		mu.Unlock()
		if ferr != nil {
			return fmt.Errorf("experiment %s failed: %w", names[i], ferr)
		}
		return nil
	})
	mu.Lock()
	flush(done)
	mu.Unlock()
	if err != nil {
		return err
	}
	return writeErr
}

// Reports computes the named experiments (all of them when names is empty)
// and returns their Reports in request order, fanning out across the
// worker budget exactly like RunAll.
func Reports(mode Mode, workers int, names []string) ([]Report, error) {
	names, outer, inner, err := resolve(workers, names)
	if err != nil {
		return nil, err
	}
	reps := make([]Report, len(names))
	err = ForEach(outer, len(names), func(i int) error {
		rep, ferr := computers[names[i]](mode, inner)
		if ferr != nil {
			return fmt.Errorf("experiment %s failed: %w", names[i], ferr)
		}
		reps[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reps, nil
}

// resolve validates names (defaulting to all experiments) and splits the
// worker budget between the two fan-out levels — experiments at the outer
// level, configuration points inside each — so total concurrency stays
// near `workers` instead of multiplying.
func resolve(workers int, names []string) (resolved []string, outer, inner int, err error) {
	if len(names) == 0 {
		names = Names()
	}
	for _, name := range names {
		if _, ok := computers[name]; !ok {
			return nil, 0, 0, fmt.Errorf("experiments: unknown experiment %q", name)
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outer = workers
	if outer > len(names) {
		outer = len(names)
	}
	inner = workers / outer
	if inner < 1 {
		inner = 1
	}
	return names, outer, inner, nil
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

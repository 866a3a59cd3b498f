package experiments

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var hits [20]atomic.Int32
		if err := ForEach(workers, len(hits), func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestForEachReturnsFirstErrorByIndex(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	err := ForEach(4, 10, func(i int) error {
		switch i {
		case 3:
			return errB
		case 2:
			return errA
		}
		return nil
	})
	if err != errA {
		t.Fatalf("got %v, want the lowest-index error %v", err, errA)
	}
}

// TestRunAllParallelMatchesSerial: the concurrent experiment runner must
// produce byte-identical output to a serial run. Fig 8 is excluded here
// because it prints wall-clock columns, which legitimately vary run to
// run; its simulated results are covered by TestFig8ParallelPoints.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-suite comparison")
	}
	names := []string{"fig1c", "fig9", "fig12"}
	run := func(workers int) string {
		t.Helper()
		var buf bytes.Buffer
		if err := RunAll(&buf, Quick, workers, names); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := run(1)
	parallel := run(4)
	if serial != parallel {
		t.Fatalf("parallel RunAll output diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if serial == "" {
		t.Fatal("empty output")
	}
}

// TestFig8ParallelPoints: Fig 8's configuration points fanned out across
// workers must produce the same simulated rows as the serial sweep
// (wall-clock fields excluded — they are measurements of this host, not of
// the simulation).
func TestFig8ParallelPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("two full fig8 sweeps")
	}
	run := func(workers int) *Fig8Result {
		t.Helper()
		res, err := ComputeFig8(Quick, workers)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(3)
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("row count %d vs %d", len(parallel.Rows), len(serial.Rows))
	}
	for i := range serial.Rows {
		s, p := serial.Rows[i], parallel.Rows[i]
		s.LGSWall, s.PktWall, s.AstraWall = 0, 0, 0
		p.LGSWall, p.PktWall, p.AstraWall = 0, 0, 0
		if s != p {
			t.Fatalf("row %d diverged:\nserial:   %+v\nparallel: %+v", i, p, s)
		}
	}
}

func TestRunAllRejectsUnknownName(t *testing.T) {
	if err := RunAll(io.Discard, Quick, 2, []string{"fig99"}); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
}

// TestFig10ParallelPoints: Fig 10's configuration points fanned out across
// workers must produce the same rows and output as the serial sweep (no
// wall-clock fields to exclude — Fig 10 prints only simulated values).
func TestFig10ParallelPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("two full fig10 sweeps")
	}
	run := func(workers int) (*Fig10Result, string) {
		t.Helper()
		res, err := ComputeFig10(Quick, workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.Render(&buf)
		return res, buf.String()
	}
	serial, serialOut := run(1)
	parallel, parallelOut := run(3)
	if serialOut != parallelOut {
		t.Fatalf("fig10 output diverged:\n--- serial ---\n%s\n--- parallel ---\n%s", serialOut, parallelOut)
	}
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("row count %d vs %d", len(parallel.Rows), len(serial.Rows))
	}
	for i := range serial.Rows {
		if serial.Rows[i] != parallel.Rows[i] {
			t.Fatalf("row %d diverged:\nserial:   %+v\nparallel: %+v", i, parallel.Rows[i], serial.Rows[i])
		}
	}
}

// TestRunAllIsReentrant: with the sweep budget threaded through calls
// instead of living in a package global, concurrent evaluations in one
// process must not interfere — every run's output equals a lone serial
// run's.
func TestRunAllIsReentrant(t *testing.T) {
	if testing.Short() {
		t.Skip("several quick-suite runs")
	}
	names := []string{"fig1c", "fig9"}
	var want bytes.Buffer
	if err := RunAll(&want, Quick, 1, names); err != nil {
		t.Fatal(err)
	}
	const concurrent = 3
	outs := make([]bytes.Buffer, concurrent)
	errs := make([]error, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = RunAll(&outs[i], Quick, 2, names)
		}()
	}
	wg.Wait()
	for i := 0; i < concurrent; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if outs[i].String() != want.String() {
			t.Fatalf("concurrent run %d diverged from the serial run", i)
		}
	}
}

// TestFannedFiguresParallelPoints: every remaining figure's per-call
// fan-out (fig9, fig11, fig12, fig13, fig1c, table1 — fig8 and fig10 have
// their own suites above) must render byte-identically for any worker
// budget; none of these reports prints host wall-clock fields.
func TestFannedFiguresParallelPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick sweeps per figure")
	}
	for _, name := range []string{"fig9", "fig11", "fig12", "fig13", "fig1c", "table1"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			render := func(workers int) string {
				rep, err := computers[name](Quick, workers)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				rep.Render(&buf)
				return buf.String()
			}
			serial := render(1)
			parallel := render(3)
			if serial != parallel {
				t.Fatalf("%s output diverged:\n--- serial ---\n%s\n--- parallel ---\n%s", name, serial, parallel)
			}
		})
	}
}

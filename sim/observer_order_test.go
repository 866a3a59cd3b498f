package sim

import (
	"context"
	"testing"

	"atlahs/internal/workload/micro"
)

// orderingObserver records the interleaved callback stream as one ordered
// log. It holds no lock: a run with an Observer is serial, so every
// callback comes from the goroutine that called Run, and CI's -race pass
// over this test would report any that did not.
type orderingObserver struct {
	kinds []string // "started", "op", "progress" in arrival order
	tally Tally
}

func (o *orderingObserver) RunStarted(RunInfo) {
	o.kinds = append(o.kinds, "started")
}

func (o *orderingObserver) OpCompleted(ev OpEvent) {
	o.kinds = append(o.kinds, "op")
	switch ev.Kind {
	case OpCalc:
		o.tally.Calcs++
	case OpSend:
		o.tally.Sends++
	case OpRecv:
		o.tally.Recvs++
	}
}

func (o *orderingObserver) Progress(ProgressEvent) {
	o.kinds = append(o.kinds, "progress")
}

// TestObserverEventOrdering pins the stream contract the service's SSE
// bridge relies on, at 1 worker and at 4: a run with an Observer is
// serial whatever Workers asks for, RunStarted fires exactly once and
// strictly before the first Progress (and before any op completion), and
// the OpCompleted tallies equal Result.Done — every executed op is
// observed exactly once.
func TestObserverEventOrdering(t *testing.T) {
	s := micro.BulkSynchronous(8, 4, 16384, 1500)
	for _, workers := range []int{1, 4} {
		obs := &orderingObserver{}
		res, err := Run(context.Background(), Spec{Workload: Workload{Schedule: s},
			Workers:       workers,
			Observer:      obs,
			ProgressEvery: 7})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Parallel || res.Workers != 1 {
			t.Fatalf("workers=%d: a run with an Observer ran parallel=%v on %d workers, want serial", workers, res.Parallel, res.Workers)
		}
		var started, firstProgress, firstOp int = -1, -1, -1
		startedCount := 0
		for i, k := range obs.kinds {
			switch k {
			case "started":
				startedCount++
				if started == -1 {
					started = i
				}
			case "progress":
				if firstProgress == -1 {
					firstProgress = i
				}
			case "op":
				if firstOp == -1 {
					firstOp = i
				}
			}
		}
		if startedCount != 1 {
			t.Fatalf("workers=%d: RunStarted fired %d times", workers, startedCount)
		}
		if started != 0 {
			t.Fatalf("workers=%d: RunStarted at position %d, want 0 (before every other event)", workers, started)
		}
		if firstProgress != -1 && firstProgress < started {
			t.Fatalf("workers=%d: Progress at %d precedes RunStarted at %d", workers, firstProgress, started)
		}
		if firstOp != -1 && firstOp < started {
			t.Fatalf("workers=%d: OpCompleted at %d precedes RunStarted at %d", workers, firstOp, started)
		}
		if firstProgress == -1 {
			t.Fatalf("workers=%d: no Progress events despite ProgressEvery", workers)
		}
		if obs.tally != res.Done {
			t.Fatalf("workers=%d: observed tallies %+v, Result.Done %+v", workers, obs.tally, res.Done)
		}
		if got := obs.tally.Total(); got != res.Ops {
			t.Fatalf("workers=%d: observed %d op completions, result says %d", workers, got, res.Ops)
		}
	}
}

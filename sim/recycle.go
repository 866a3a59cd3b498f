package sim

import (
	"sync"

	"atlahs/internal/backend"
	"atlahs/internal/engine"
	"atlahs/internal/sched"
)

// runState is what a run that succeeded leaves for a later one: the
// scheduler's per-rank arrays, the serial engine with its heap, and, when
// the run was on LGS and Drained has proven it clean, the LGS with its
// streams, NICs, message records and matcher queues, unbound from the run.
// With it, a warm process allocates for a run its input, its Result and
// little else. None of it names the schedule, the backend's callback or an
// Observer of the run that left it. Run is the only code that can tell a
// run succeeded, so it is the only code that returns one; the lane engine
// and the fabric models are built for every run.
type runState struct {
	sched sched.State
	eng   *engine.Engine // nil until a serial run needs one
	lgs   *backend.LGS   // nil unless the last run was on LGS and drained
}

// recycled is the process's stock of run states. A run takes the state
// returned last or makes one, so the process never holds more states than
// it once had runs in flight at the same time: executors whose runs
// overlap each find one, and a sequence of runs shares one. A state is as
// large as the largest run it served, which the process held at that run's
// peak anyway. (sync.Pool's per-P slots and victim cache kept several alive
// for a sequence of runs, which raised the collector's heap target: 92 MB
// of peak RSS against 74 with this list on the hpc-goal-lgs benchmark
// workload.)
var recycled struct {
	sync.Mutex
	free []*runState
}

// takeRunState starts a run on the state returned last, or on a new one.
func takeRunState() *runState {
	recycled.Lock()
	defer recycled.Unlock()
	k := len(recycled.free)
	if k == 0 {
		return new(runState)
	}
	rs := recycled.free[k-1]
	recycled.free[k-1] = nil
	recycled.free = recycled.free[:k-1]
	return rs
}

// returnRunState keeps the state of a run that succeeded.
func returnRunState(rs *runState) {
	recycled.Lock()
	defer recycled.Unlock()
	recycled.free = append(recycled.free, rs)
}

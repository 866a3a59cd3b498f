package sim

import (
	"atlahs/internal/backend"
	"atlahs/internal/engine"
	"atlahs/internal/registry"
	"atlahs/internal/sched"
)

// runState is what a run that succeeded leaves for a later one: the
// scheduler's per-rank arrays, the serial engine with its event slab,
// and, when the run was on LGS and Drained has proven it clean, the LGS
// with its streams, NICs, message records and matcher queues, unbound
// from the run.
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

// runStates is the process's stock of run states. A state is as large as
// the largest run it served, which the process held at that run's peak
// anyway.
var runStates registry.Stock[runState]

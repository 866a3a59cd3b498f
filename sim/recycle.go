package sim

import (
	"atlahs/internal/backend"
	"atlahs/internal/engine"
	"atlahs/internal/registry"
	"atlahs/internal/sched"
)

// runState is what a run that succeeded leaves for a later one: the
// scheduler's per-rank arrays, the serial engine with its event slab, and
// the backend's state once Drained has proven it clean, unbound from the
// run — LGS with its streams, NICs, message records and matcher queues, or
// the packet backend with its streams, send records and matcher queues and
// its network: the fabric, the paths it has asked for, the port queues and
// the packet and flow records. A later pkt run adopts the network only on
// the same fabric (backend.Fabric); one on another fabric takes the rest.
// With it, a warm process allocates for a run its input, its Result and
// little else. None of it names the schedule, the backend's callback, an
// Observer or the PktConfig.MCT sample of the run that left it. Run is the
// only code that can tell a run succeeded, so it is the only code that
// returns one. The lane engine is built for every run, and so is the fluid
// backend: no timed operation runs fluid through Run, and the benchmark's
// fluid accuracy runs would otherwise leave their backend's state held by
// the LGS runs that follow them.
type runState struct {
	sched sched.State
	eng   *engine.Engine      // nil until a serial run needs one
	lgs   *backend.LGS        // nil unless the last run was on LGS and drained
	pkt   *backend.NetBackend // nil unless the last run was on pkt and drained
}

// runStates is the process's stock of run states. A state is as large as
// the largest run it served, which the process held at that run's peak
// anyway.
var runStates registry.Stock[runState]

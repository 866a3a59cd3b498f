package sim

import (
	"atlahs/internal/backend"
	"atlahs/internal/core"
	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/simtime"
	"atlahs/internal/stats"
	"atlahs/internal/topo"
)

// Aliases re-export the toolchain types that appear in the facade API, so
// facade users name everything through this package.
type (
	// Schedule is a GOAL dependency program (one task DAG per rank).
	Schedule = goal.Schedule
	// ScheduleStats is the size accounting of a Schedule.
	ScheduleStats = goal.Stats
	// OpKind distinguishes calc, send and recv GOAL ops.
	OpKind = goal.Kind
	// Duration and Time are simulated picosecond durations/instants.
	Duration = simtime.Duration
	Time     = simtime.Time
	// LogGOPS holds the message-level model parameters (paper §5).
	LogGOPS = backend.LogGOPS
	// NetParams are the host-side overheads of the congestion-aware backends.
	NetParams = backend.NetParams
	// LinkSpec parameterises one link of a fabric topology.
	LinkSpec = topo.LinkSpec
	// Topology is an immutable fabric graph: read-only once built, so
	// concurrent runs may share one through PktConfig.Topo / FluidConfig.Topo.
	Topology = topo.Topology
	// Sample accumulates a metric distribution (e.g. message completion times).
	Sample = stats.Sample
)

// Aliases for the backend contract (paper Fig 7), so third-party
// simulators outside this module can implement core.Backend and register
// through this package without naming internal import paths: a factory is
// `func(cfg any, env sim.Env) (sim.Backend, error)` and its Setup method
// is `Setup(nranks int, eng sim.Engine, over sim.CompletionFunc) error`.
type (
	// Backend is the ATLAHS simulator interface the scheduler drives.
	Backend = core.Backend
	// Engine is the simulation-clock contract (serial or parallel) a
	// backend schedules its events on.
	Engine = engine.Sim
	// Handle identifies an issued operation.
	Handle = core.Handle
	// CompletionFunc is the eventOver callback.
	CompletionFunc = core.CompletionFunc
	// SendEvent, RecvEvent and CalcEvent are the three core operations.
	SendEvent = core.SendEvent
	RecvEvent = core.RecvEvent
	CalcEvent = core.CalcEvent
	// LookaheadProvider is implemented by backends whose model guarantees
	// a minimum cross-rank delay, enabling the parallel engine.
	LookaheadProvider = core.LookaheadProvider
)

// Aliases for the GOAL builder API, so schedules can be constructed
// programmatically without naming internal import paths.
type (
	// Builder incrementally constructs a Schedule.
	Builder = goal.Builder
	// RankBuilder adds ops and dependencies to one rank. Requires and
	// IRequires panic on an op older than the last one named in that table.
	RankBuilder = goal.RankBuilder
	// OpID identifies an op within one rank's program during construction.
	OpID = goal.OpID
)

// NewBuilder creates a schedule builder for nranks ranks. Producers keep
// goal.Builder's contract: each table's dependencies in op order.
func NewBuilder(nranks int) *Builder { return goal.NewBuilder(nranks) }

// GOAL op kinds.
const (
	OpCalc = goal.KindCalc
	OpSend = goal.KindSend
	OpRecv = goal.KindRecv
)

// AIParams returns the LogGOPS parameters measured for the paper's AI
// cluster (§5.2); the "lgs" backend's default.
func AIParams() LogGOPS { return backend.AIParams() }

// HPCParams returns the LogGOPS parameters measured on the paper's HPC
// test-bed (§5.3), with the 256 KB rendezvous threshold.
func HPCParams() LogGOPS { return backend.HPCParams() }

// DefaultNetParams mirrors the LGS AI overheads so the message-level and
// congestion-aware backends are calibrated identically out of the box.
func DefaultNetParams() NetParams { return backend.DefaultNetParams() }

// DefaultLinkSpec is the fabric link used when a config leaves Link zero.
func DefaultLinkSpec() LinkSpec { return topo.DefaultLinkSpec() }

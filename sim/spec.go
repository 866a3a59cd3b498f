package sim

import (
	"fmt"
	"os"
	"strings"

	"atlahs/internal/goal"
)

// Spec declares one simulation run. Exactly one workload source must be
// set; everything else has usable zero values. A zero Spec with a workload
// runs that schedule serially on the "lgs" backend with default parameters.
type Spec struct {
	// Workload declares the run's workload source (GoalPath, GoalBytes,
	// Schedule, Synthetic, TracePath, Trace, Model or ModelPath). The
	// fields are embedded, so they read and write as Spec's own.
	Workload

	// Jobs composes several independently-sourced workloads onto one
	// fabric (the paper's multi-job scenarios, §3.2): each job's schedule
	// is resolved like a single-workload Spec, ranks are mapped onto
	// disjoint fabric nodes by the Placement policy, and the merged
	// schedule runs as one simulation. Mutually exclusive with the
	// single-workload sources above; per-job node sets come back in
	// Result.JobNodes.
	Jobs []JobSpec
	// Placement lays composed jobs out on the fabric: "packed" (default;
	// contiguous per-job node blocks) or "interleaved" (nodes dealt to
	// jobs round-robin). Only valid with Jobs.
	Placement string

	// Backend names the registered simulator to run on; "" means "lgs".
	Backend string
	// Config is the backend's typed configuration (e.g. LGSConfig,
	// PktConfig, FluidConfig, or a third-party backend's own type). nil
	// selects that backend's defaults; a value of the wrong type is an
	// error, not a silent default.
	Config any

	// Workers is the goroutine budget for the sharded parallel engine:
	// 0 and 1 run serially, > 1 runs parallel when the backend supports it
	// (a declared positive lookahead), and < 0 means GOMAXPROCS. Asking for
	// Workers > 1 on a backend that cannot shard (pkt, fluid) is an error.
	// Results never depend on Workers.
	Workers int
	// CalcScale multiplies every calc duration (hardware adaptation factor,
	// paper §7). 0 means 1.0.
	CalcScale float64
	// Seed is the top-level simulation seed, inherited by backend configs
	// that leave their own seed zero.
	Seed uint64

	// Observer, when non-nil, receives streaming run callbacks. With
	// Workers > 1 its op-level methods are called from multiple goroutines
	// and must be safe for concurrent use.
	Observer Observer
	// ProgressEvery emits Observer.Progress every N completed ops (0 = off).
	ProgressEvery int64
	// Timeline, when non-nil, records the run's execution timeline into
	// the given recorder (see NewTimeline): one instant per op completion
	// and — on the parallel engine — one span per executed conservative
	// window. Like Observer it is a process-local hook: it never crosses
	// the wire and does not participate in fingerprints.
	Timeline *Timeline

	// resolved pins the outcome of one workload resolution (ResolveSpec):
	// Run reuses it instead of re-reading files, re-converting traces and
	// re-composing jobs. Never set on hand-built or decoded specs.
	resolved *resolvedWorkload
}

// resolvedWorkload is the product of resolving a Spec's workload
// declaration once.
type resolvedWorkload struct {
	sched    *goal.Schedule
	jobNodes [][]int
}

// Synthetic declares a generated traffic pattern, resolved by name
// through the generator registry (RegisterGenerator; the built-in
// patterns live in internal/workload/micro).
type Synthetic struct {
	// Pattern names a registered generator: "ring", "alltoall", "incast",
	// "permutation", "uniform", "bsp", or a third-party registration.
	Pattern string
	// Ranks is the number of participating ranks.
	Ranks int
	// Bytes is the per-message payload size.
	Bytes int64
	// Fanin is the incast fan-in (default Ranks-1).
	Fanin int
	// Msgs is the per-rank message count for "uniform" (default 100).
	Msgs int
	// Phases is the superstep count for "bsp" (default 4).
	Phases int
	// CalcNanos is the per-phase compute for "bsp" (default 1000).
	CalcNanos int64
	// Seed seeds "permutation" and "uniform"; 0 inherits Spec.Seed.
	Seed uint64
}

// validate checks the pattern declaration without generating anything.
func (sy *Synthetic) validate() error {
	if sy.Ranks <= 0 {
		return fmt.Errorf("sim: synthetic workload needs Ranks > 0, got %d", sy.Ranks)
	}
	_, err := patternGenerator(sy.Pattern)
	return err
}

// generate builds the schedule for the pattern through the registry.
func (sy *Synthetic) generate(topSeed uint64) (*goal.Schedule, error) {
	if err := sy.validate(); err != nil {
		return nil, err
	}
	def, err := patternGenerator(sy.Pattern)
	if err != nil {
		return nil, err
	}
	seed := sy.Seed
	if seed == 0 {
		seed = topSeed
	}
	if seed == 0 {
		seed = 1
	}
	return def.New(GenRequest{Synthetic: *sy, Ranks: sy.Ranks, Seed: seed})
}

// JobSpec declares one composed job's workload for Spec.Jobs. Exactly one
// source must be set per job; the embedded Workload carries the same
// fields as Spec's single-workload sources.
type JobSpec struct {
	Workload
}

// Validate checks the spec's declarative shape without touching the
// filesystem and without running anything: exactly one workload source
// (or a Jobs composition), resolvable frontend, placement and backend
// names, synthetic parameters in range, and a worker request the backend
// can honour. Run validates through this same path, as do the spec codec
// (MarshalSpec/UnmarshalSpec) and the simulation service, so an invalid
// spec is rejected with identical error text at every entry point.
//
// What Validate cannot see are the workload's contents: a GoalPath that
// does not exist, a malformed trace, or a backend config the factory
// rejects still surface from Run.
func (sp *Spec) Validate() error {
	if len(sp.Jobs) == 0 {
		if sp.Placement != "" {
			return fmt.Errorf("sim: Placement %q is only meaningful with Jobs", sp.Placement)
		}
		if err := sp.Workload.validate(); err != nil {
			return err
		}
	} else {
		if n := sp.Workload.sources(); n > 0 {
			return fmt.Errorf("sim: spec sets both Jobs and %d top-level workload source(s); use one or the other", n)
		}
		if _, err := placementPolicy(sp.Placement); err != nil {
			return err
		}
		for i := range sp.Jobs {
			if err := sp.Jobs[i].validate(); err != nil {
				return fmt.Errorf("sim: job %d: %w", i, err)
			}
		}
	}
	name := sp.BackendName()
	def, ok := Lookup(name)
	if !ok {
		return fmt.Errorf("sim: unknown backend %q (registered: %s)", name, strings.Join(Backends(), ", "))
	}
	if workers := resolveWorkers(sp.Workers); workers > 1 && !def.Parallel {
		return fmt.Errorf("sim: backend %q shares fabric state across ranks and cannot run on the parallel engine; drop the worker request (got %d)", name, workers)
	}
	return nil
}

// BackendName resolves the spec's backend field ("" means "lgs").
func (sp *Spec) BackendName() string {
	if sp.Backend == "" {
		return "lgs"
	}
	return sp.Backend
}

// resolve turns the Spec's workload declaration — a single source or a
// Jobs composition — into the schedule to simulate, plus each composed
// job's node set (nil for single workloads). The caller has validated.
// A spec pinned by ResolveSpec returns its resolution without touching
// the sources again.
func (sp *Spec) resolve() (*goal.Schedule, [][]int, error) {
	if sp.resolved != nil {
		return sp.resolved.sched, sp.resolved.jobNodes, nil
	}
	if len(sp.Jobs) == 0 {
		s, err := sp.Workload.schedule(sp.Seed)
		return s, nil, err
	}
	policy, err := placementPolicy(sp.Placement)
	if err != nil {
		return nil, nil, err
	}
	scheds := make([]*goal.Schedule, len(sp.Jobs))
	sizes := make([]int, len(sp.Jobs))
	for i := range sp.Jobs {
		s, err := sp.Jobs[i].schedule(sp.Seed)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: job %d: %w", i, err)
		}
		scheds[i], sizes[i] = s, s.NumRanks()
	}
	nodes, err := policy.Nodes(sizes)
	if err != nil {
		return nil, nil, err
	}
	merged, err := goal.Compose(nodes, scheds...)
	if err != nil {
		return nil, nil, err
	}
	return merged, nodes, nil
}

// Placements lists the job placement policy names Spec.Placement accepts.
func Placements() []string { return []string{"packed", "interleaved"} }

// placementPolicy maps Spec.Placement to the composition policy.
func placementPolicy(name string) (goal.Placement, error) {
	switch name {
	case "", "packed":
		return goal.PlacePacked, nil
	case "interleaved":
		return goal.PlaceInterleaved, nil
	}
	return 0, fmt.Errorf("sim: unknown placement %q (want one of %s)", name, strings.Join(Placements(), ", "))
}

// LoadGOAL reads a GOAL schedule file, textual or binary (auto-detected by
// the binary magic; see DecodeGOAL).
func LoadGOAL(path string) (*Schedule, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return goal.Decode(b)
}

// DecodeGOAL parses a serialised GOAL schedule, textual or binary
// (auto-detected). Binary input is decoded in place: b is not copied.
func DecodeGOAL(b []byte) (*Schedule, error) { return goal.Decode(b) }

package sim

import (
	"fmt"
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
	// (a declared positive lookahead) and the run is unwatched (no
	// Observer, no Timeline, a ctx that cannot be cancelled; see Run), and
	// < 0 means GOMAXPROCS. Any value other than 0 or 1 on a backend that
	// cannot shard (pkt, fluid) is an error, whatever GOMAXPROCS reads.
	// Results never depend on Workers. It is the only way into in-run
	// parallelism, which measures slower than the serial engine (README,
	// "The parallel simulation subsystem"); no command reaches it, since
	// every command watches its runs. Commands parallelise across runs
	// instead (experiments -workers, atlahsd -jobs).
	Workers int
	// CalcScale multiplies every calc duration (hardware adaptation factor,
	// paper §7). 0 means 1.0.
	CalcScale float64
	// Seed is the top-level simulation seed, inherited by backend configs
	// that leave their own seed zero.
	Seed uint64

	// Observer, when non-nil, receives streaming run callbacks, all from
	// the goroutine that calls Run: a run with an Observer is serial.
	Observer Observer
	// ProgressEvery emits Observer.Progress every N completed ops (0 = off).
	ProgressEvery int64
	// Timeline, when non-nil, records the run's op completions into the
	// given recorder (see NewTimeline), one instant each. A run with a
	// Timeline is serial, so the recorder is written by the goroutine that
	// calls Run, in one deterministic order: the same spec records the same
	// events, a capped recorder the same prefix, whatever Workers asks
	// for. Like Observer it is a process-local hook: it never crosses the
	// wire and does not participate in fingerprints.
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
	// validated: sched passed Schedule.Validate where it was made, by a
	// producer of this module, and only the resolution holds it, so Run
	// does not check it again. A caller's Workload.Schedule (which the
	// caller may change at any time) and a third-party producer's
	// schedule are checked by Run.
	validated bool
}

// Synthetic declares a generated traffic pattern, resolved by name
// through the generator registry (RegisterGenerator; the built-in
// patterns live in internal/workload/micro). Its json tags are its
// atlahs.spec/v1 wire keys.
type Synthetic struct {
	// Pattern names a registered generator: "ring", "alltoall", "incast",
	// "permutation", "uniform", "bsp", or a third-party registration.
	Pattern string `json:"pattern"`
	// Ranks is the number of participating ranks.
	Ranks int `json:"ranks"`
	// Bytes is the per-message payload size.
	Bytes int64 `json:"bytes,omitempty"`
	// Fanin is the incast fan-in (default Ranks-1).
	Fanin int `json:"fanin,omitempty"`
	// Msgs is the total message count for "uniform", over all ranks
	// (default 100).
	Msgs int `json:"msgs,omitempty"`
	// Phases is the superstep count for "bsp" (default 4).
	Phases int `json:"phases,omitempty"`
	// CalcNanos is the per-phase compute for "bsp" (default 1000).
	CalcNanos int64 `json:"calc_nanos,omitempty"`
	// Seed seeds "permutation" and "uniform"; 0 inherits Spec.Seed.
	Seed uint64 `json:"seed,omitempty"`
}

const (
	// maxSyntheticRanks bounds a synthetic pattern's rank count, as the
	// text GOAL header and synth.Generate bound theirs.
	maxSyntheticRanks = goal.MaxTextRanks
	// maxSyntheticOps bounds the ops a built-in pattern may generate
	// (about 830 MB of stored ops: a rank stores a message under 64 MiB
	// in about 12.4 bytes and a calc in 4; 1.4 GB if every message is a
	// larger one, at 20.4; and up to about 12 bytes an op of builder
	// scratch while it is built, of which goal keeps at most 16 MiB
	// afterwards), so that one short spec cannot make Run or atlahsd
	// allocate without limit.
	maxSyntheticOps = 1 << 26
)

// validate checks the pattern declaration without generating anything:
// a rank count and a message size the generators and an op can hold, a
// registered pattern and, for a built-in one, an op count under
// maxSyntheticOps.
func (sy *Synthetic) validate() error {
	if sy.Ranks <= 0 || sy.Ranks > maxSyntheticRanks {
		return fmt.Errorf("sim: synthetic workload needs Ranks in [1, %d], got %d", maxSyntheticRanks, sy.Ranks)
	}
	if sy.Bytes < 0 || sy.Bytes > goal.MaxMessageBytes {
		return fmt.Errorf("sim: synthetic workload needs Bytes in [0, %d] (one GOAL message), got %d", int64(goal.MaxMessageBytes), sy.Bytes)
	}
	if _, err := patternGenerator(sy.Pattern); err != nil {
		return err
	}
	if sy.tooManyOps() {
		return fmt.Errorf("sim: synthetic pattern %q on %d ranks would generate more than %d ops", sy.Pattern, sy.Ranks, maxSyntheticOps)
	}
	return nil
}

// tooManyOps reports whether a built-in pattern would generate more than
// maxSyntheticOps ops, counted from its parameters as micro's generators
// count them, without overflow (Ranks is at most maxSyntheticRanks).
// "ring", "permutation" and "incast" generate at most 2·Ranks ops, which
// the rank bound keeps under it; a third-party pattern is not counted.
func (sy *Synthetic) tooManyOps() bool {
	n := int64(sy.Ranks)
	var perUnit, units int64
	switch sy.Pattern {
	case "alltoall":
		perUnit, units = 2*n*(n-1), 1
	case "uniform": // a gap and a send on the source, a receive on the destination
		perUnit, units = 3, int64(sy.msgs())
	case "bsp": // per phase, each rank's calc, n-1 sends and n-1 receives
		perUnit, units = n*(2*n-1), int64(sy.phases())
	default:
		return false
	}
	return perUnit > 0 && units > maxSyntheticOps/perUnit
}

// msgs is the "uniform" message count, Msgs or its default.
func (sy Synthetic) msgs() int {
	if sy.Msgs <= 0 {
		return 100
	}
	return sy.Msgs
}

// phases is the "bsp" superstep count, Phases or its default.
func (sy Synthetic) phases() int {
	if sy.Phases <= 0 {
		return 4
	}
	return sy.Phases
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
	if sp.Workers != 0 && sp.Workers != 1 && !def.Parallel {
		return fmt.Errorf("sim: backend %q shares fabric state across ranks and cannot run on the parallel engine; drop the worker request (got %d)", name, sp.Workers)
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
func (sp *Spec) resolve() (resolvedWorkload, error) {
	if sp.resolved != nil {
		return *sp.resolved, nil
	}
	if len(sp.Jobs) == 0 {
		s, validated, err := sp.Workload.schedule(sp.Seed)
		return resolvedWorkload{sched: s, validated: validated}, err
	}
	policy, err := placementPolicy(sp.Placement)
	if err != nil {
		return resolvedWorkload{}, err
	}
	scheds := make([]*goal.Schedule, len(sp.Jobs))
	sizes := make([]int, len(sp.Jobs))
	for i := range sp.Jobs {
		s, _, err := sp.Jobs[i].schedule(sp.Seed)
		if err != nil {
			return resolvedWorkload{}, fmt.Errorf("sim: job %d: %w", i, err)
		}
		scheds[i], sizes[i] = s, s.NumRanks()
	}
	nodes, err := policy.Nodes(sizes)
	if err != nil {
		return resolvedWorkload{}, err
	}
	// Compose validates the merged schedule, which it alone holds.
	merged, err := goal.Compose(nodes, scheds...)
	if err != nil {
		return resolvedWorkload{}, err
	}
	return resolvedWorkload{sched: merged, jobNodes: nodes, validated: true}, nil
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

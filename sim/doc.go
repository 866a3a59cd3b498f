// Package sim is the public facade of the ATLAHS toolchain: the one way to
// run a simulation. A declarative Spec names the workload, the backend
// (resolved through a registry that third-party simulators can join via
// Register), and the execution knobs (worker budget, calc scaling, seed).
// Run executes the spec, picking the serial or sharded parallel engine
// (the parallel one only for an unwatched run, see below), streams op
// completions and periodic progress to an optional Observer while it
// runs, all from the caller's goroutine, and returns a
// typed Result — the one carrier of what the run measured: makespan,
// per-rank completion times, the schedule's size accounting, the
// scheduler's executed-op tallies and the backend's fabric counters when
// it tracks them. Everything in a Result except the Wall measurement is
// deterministic — independent of worker count and host conditions — so
// results can be exported (see the results package) and compared across
// runs.
//
// Workloads enter through three symmetric registries, declared on one
// shared Workload struct (embedded by Spec and JobSpec, so the fields
// read as each spec's own and single and composed workloads validate and
// resolve through one path). On the ingestion side, the workload-frontend
// registry (RegisterFrontend) is the boundary where application traces
// meet the GOAL intermediate representation: a Spec may name a
// pre-converted GOAL schedule (GoalPath, GoalBytes, Schedule), a
// synthetic traffic generator (Synthetic), a raw application trace
// (TracePath, Trace) that a registered frontend converts on the fly, or a
// statistical workload model (Model, ModelPath) sampled into a schedule
// at resolution time. The built-in frontends are "nsys" (GPU reports
// through the 4-stage NCCL pipeline), "mpi" (liballprof-style traces
// through Schedgen), "spc" (block-I/O traces through the Direct Drive
// model), "chakra" (AstraSim's execution traces), and "goal" (the GOAL
// codecs themselves). A trace is bytes: a TracePath is read whole and
// then takes the conversion a Trace takes (ConvertTrace), and a frontend's
// Convert is func(b []byte, cfg any) (*Schedule, error). The format is
// sniffed from the content with the file extension as fallback, or named
// explicitly via Spec.Frontend (ResolveFrontend reports which frontend
// that is); per-frontend conversion knobs ride in Spec.FrontendConfig.
// On the generation side, the generator registry (RegisterGenerator) resolves
// Synthetic.Pattern by name — the built-in patterns ("ring", "alltoall",
// "incast", "permutation", "uniform", "bsp") self-register, and every
// registered name is a pattern — so third-party traffic patterns plug in
// exactly like third-party frontends. The model workload source is not a
// generator: it samples through GenerateFromModel. On the
// backend side, the registry built in PR 2 resolves Spec.Backend ("lgs",
// "pkt", "fluid", or third-party). The three registries are one
// implementation (internal/registry) behind three sets of exported names,
// and all three may be registered into while runs resolve names.
//
// Workload synthesis closes the loop between ingestion and generation:
// MineModel walks any resolved schedule — a converted trace, a loaded
// GOAL file, a generated pattern — and extracts a statistical model
// (message-size and per-rank message-count distributions, compute/
// communication structure, traffic classes with destination-offset
// histograms, and the dependency-depth profile), serialised under the
// append-only atlahs.model/v1 schema (the concrete types and the codec
// live in the results package: results.EncodeModelJSON writes a model and
// results.DecodeModelJSON is its one reader). GenerateFromModel — or a
// Spec with Model/ModelPath set — samples a model back into a schedule at
// an arbitrary rank count, deterministically for (model, ranks, seed), so
// an 8-rank instrumented run can drive simulations at 100k ranks and the
// generated workloads stay content-addressable (Fingerprint hashes the
// resolved schedule, so the service's run cache answers repeated model
// runs without simulating). cmd/atlahs-synth is the CLI over the same
// pair (`mine`, `gen`).
//
// Multi-job scenarios compose at the same boundary: Spec.Jobs declares N
// independently-sourced workloads (each resolved exactly like a
// single-workload Spec), Spec.Placement lays them out on one shared
// fabric ("packed" or "interleaved"), and the merged schedule runs as one
// simulation with per-job node sets reported in Result.JobNodes — the
// paper's heterogeneous co-location scenarios (§3.2) as a one-spec run.
//
// Every run is observable without being instrumented by its caller:
// Result.Metrics carries an atlahs.metrics/v1 snapshot (see the results
// package) of the engine's and scheduler's execution counters —
// conservative windows, adaptive widenings, peak queue depths, worker
// wakeups — and Spec.Timeline optionally attaches a bounded recorder
// (NewTimeline) that captures op completions as Chrome trace-event JSON
// loadable in Perfetto. Timeline timestamps are simulated time, and a
// run with a Timeline is serial, so the recorded document is as
// deterministic as the run itself, and a recorder capped below the op
// count keeps the same prefix every time. Like Observer, a Timeline is a
// process-local hook: MarshalSpec rejects specs carrying one, and
// neither participates in Fingerprint.
//
// Specs also cross process boundaries: MarshalSpec/UnmarshalSpec give
// every Spec a canonical wire form under the append-only atlahs.spec/v1
// schema (config payloads resolved by backend/frontend name through the
// registries' NewConfig hooks; UnmarshalSpec is the one reader of a spec,
// as results.DecodeModelJSON is of a model — the results package lists
// the one reader of each document and the write-only exports, CSV,
// atlahs.diff/v1 and atlahs.sweepset/v1, that have none), Validate rejects invalid specs with the
// same error text at every entry point, and Fingerprint assigns each
// spec a content address — equal fingerprints imply bit-identical
// Results, the property the simulation service's run cache is built on.
// EncodeSpec writes MarshalSpec's bytes to a writer.
//
// The layering is strict: internal/service (the resident simulation
// server behind atlahsd — content-addressed run cache, bounded job
// queue, event streaming over HTTP) sits on sim; sim (this package, the
// entry point) sits on internal/trace/frontend (the ingestion registry
// the trace converters self-register into) and internal/sched (the GOAL
// dependency scheduler), which drives any internal/core.Backend, which
// schedules its events on internal/engine (the serial and parallel
// discrete-event cores — Run owns the one rule that picks between them:
// the lane engine when an unwatched run (no Observer, no Timeline, a ctx
// that cannot be cancelled) asks more than one worker of a backend with
// a positive lookahead on more than one rank, the serial engine
// otherwise; Validate refuses any request but 0 or 1 workers of a
// backend that cannot shard).
// Commands and examples program exclusively
// against sim (or internal/service above it); nothing above this package
// touches the scheduler, the engines, or the trace converters directly
// (CI enforces both boundaries).
//
// Minimal use:
//
//	res, err := sim.Run(ctx, sim.Spec{
//		Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "alltoall", Ranks: 64, Bytes: 1 << 16}},
//		Backend:  "lgs",
//	})
//
// Direct trace replay, model-based synthesis and scenario composition:
//
//	res, err := sim.Run(ctx, sim.Spec{Workload: sim.Workload{TracePath: "run.nsys"}}) // sniffed, NCCL pipeline
//	res, err := sim.Run(ctx, sim.Spec{
//		Workload: sim.Workload{Model: &sim.ModelGen{Ranks: 4096, Doc: modelDoc}}, // mined once, scaled up
//	})
//	res, err := sim.Run(ctx, sim.Spec{
//		Jobs: []sim.JobSpec{
//			{Workload: sim.Workload{TracePath: "train.nsys", FrontendConfig: sim.NsysConfig{GPUsPerNode: 4}}},
//			{Workload: sim.Workload{TracePath: "stencil.mpi"}},
//			{Workload: sim.Workload{ModelPath: "checkpoint.model.json"}},
//		},
//		Placement: "interleaved",
//		Backend:   "pkt",
//	})
//
// Any simulator honouring the ATLAHS backend contract (paper Fig 7) can be
// plugged in behind the same schedule, and any trace format or traffic
// pattern can be plugged in ahead of it:
//
//	sim.Register(sim.Definition{Name: "mysim", New: newMySim})
//	sim.RegisterFrontend(sim.Frontend{Name: "myfmt", Sniff: sniff, Convert: convert})
//	sim.RegisterGenerator(sim.GeneratorDef{Name: "mypattern", New: genMyPattern})
//	res, err := sim.Run(ctx, sim.Spec{
//		Workload: sim.Workload{TracePath: "run.myfmt"},
//		Backend:  "mysim",
//	})
package sim

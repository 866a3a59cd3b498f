// Package atlahs is a from-scratch Go reproduction of ATLAHS, the
// application-centric network simulator toolchain for AI, HPC and
// distributed storage (Shen, Bonato et al., SC 2025).
//
// The public API is the sim package — the facade every command, example
// and service programs against. A sim.Spec declares the workload (GOAL
// file, bytes, in-memory schedule, or synthetic pattern), names a backend
// out of the registry ("lgs", "pkt", "fluid", or a third-party simulator
// added with sim.Register), and sim.Run executes it, streaming op
// completions and progress to an optional sim.Observer.
//
// The layers underneath, top to bottom:
//
//   - sim: the facade — declarative run specs, the backend registry,
//     engine selection, observers.
//   - internal/sched: the GOAL scheduler — walks every rank's task DAG and
//     issues operations to a backend as dependencies resolve.
//   - internal/core: the ATLAHS backend contract (paper Fig 7) — send,
//     recv and calc events, completion callbacks, message matching,
//     compute streams, the lookahead declaration.
//   - internal/engine: the discrete-event cores — the serial Engine and
//     the windowed, lane-sharded parallel ParEngine with its persistent
//     worker pool. Both stay: the serial engine is the only one the pkt
//     and fluid backends can run on and the reference the equivalence
//     tests compare against, and the performance ledger shows no winner
//     between them (engine.par_speedup 0.65–0.82 at 2 workers on 2 cores).
//
// Around that spine sit the GOAL format (internal/goal: one binary
// decoder, one format sniff), the one registry implementation the backend,
// frontend and generator registries share (internal/registry), the three
// backend implementations (internal/backend over internal/pktnet and
// internal/fluid), trace ingestion (internal/trace/...), workload
// generators (internal/workload/...), and the experiment harness that
// regenerates the paper's evaluation (internal/experiments). See README.md
// for a map, its package table for the architecture, and PAPER.md for the
// paper this reproduces.
package atlahs

// Version identifies this reproduction.
const Version = "1.1.0"

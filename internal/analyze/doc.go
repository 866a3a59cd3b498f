// Package analyze is the run-history analytics layer of the ATLAHS
// toolchain: it reads what the rest of the toolchain writes — the
// atlahs.results/v1 sweeps experiments export, and the per-run artifacts
// and atlahs.runmeta/v1 sidecars the simulation service persists — and
// turns that write-only archive into an observability surface.
//
// Four engines compose:
//
//   - Diff compares two sweeps field by field (rows matched on key
//     columns or by position) into a sparse results.SweepDiff under the
//     append-only atlahs.diff/v1 schema.
//   - StoreHistory builds per-metric time series (results.Series) from a
//     results.Store's run artifacts.
//   - Gate flags significant regressions: a relative-threshold gate over
//     diffs and trajectories, plus a robust median/MAD gate for noisy
//     series. Higher is worse — every gated metric (simulated runtime,
//     host wall time) is a cost.
//   - RenderHTML renders a deterministic, dependency-free HTML report
//     over any combination of diff, trajectories and regressions; its
//     output is byte-pinned by a golden test.
//
// cmd/atlahs-analyze exposes the engines on the command line (exiting
// non-zero when the gate trips, so CI can block on regressions), and
// internal/service exposes them to a running fleet as GET /v1/history
// and GET /v1/analyze/diff.
package analyze

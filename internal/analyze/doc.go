// Package analyze compares what the rest of the ATLAHS toolchain writes:
// the atlahs.results/v1 sweeps experiments export, and the per-run
// artifacts the simulation service persists. It answers "what changed
// between these two sweeps, and did it get worse?".
//
// Three engines compose:
//
//   - Diff compares two sweeps field by field (rows matched on key
//     columns or by position) into a sparse results.SweepDiff under the
//     append-only atlahs.diff/v1 schema.
//   - Gate flags regressions: a relative-threshold gate over a diff's
//     fields and derived aggregates. Higher is worse — every gated
//     metric (simulated runtime, host wall time) is a cost.
//   - RenderHTML renders a deterministic, dependency-free HTML report of
//     a diff and its regressions; its output is byte-pinned by a golden
//     test.
//
// cmd/atlahs-analyze is their one front end (exiting non-zero when the
// gate trips, so CI can block on regressions). Two service runs are
// diffed the same way: download each one's GET /v1/runs/{id}/artifact
// and pass both files to atlahs-analyze diff.
package analyze

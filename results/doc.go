// Package results defines the machine-readable result records of the
// ATLAHS toolchain: typed sweeps of experiment rows with lossless JSON and
// CSV encodings, so figures and tables are regenerated as data artifacts
// instead of parsed out of printed text.
//
// A Sweep is one experiment's output: identifying metadata (Name, Title,
// Mode), a typed column schema, the data rows (one Record per
// configuration point), experiment-level Params, Derived aggregates, and
// free-text Notes. Records hold canonical Go values only — string, int64
// and float64 — with the column Kind distinguishing plain integers from
// simulated-time durations (always integer picoseconds, the base unit of
// internal/simtime).
//
// # JSON schema (atlahs.results/v1)
//
// EncodeJSON writes one Sweep as a single JSON object:
//
//	{
//	  "schema":  "atlahs.results/v1",
//	  "name":    "fig8",
//	  "title":   "Fig 8 — AI validation: ...",
//	  "mode":    "quick",
//	  "params":  {"key": "value"},               // optional
//	  "columns": [{"name": "measured", "kind": "duration", "unit": "ps"}],
//	  "rows":    [{"measured": 254663000000}],   // one object per Record
//	  "derived": {"max_abs_err_pct": 3.2},       // optional
//	  "notes":   ["paper: ..."]                  // optional
//	}
//
// Row objects are keyed by column name and carry exactly the declared
// columns: "string" cells are JSON strings, "int" and "duration" cells are
// integral JSON numbers (int64 range), "float" cells are finite JSON
// numbers. EncodeJSONList writes a JSON array of such objects.
//
// # CSV export
//
// EncodeCSV writes the same sweep for spreadsheets and plotting scripts
// (`experiments -format csv`). It is an export only: no reader in the
// toolchain takes CSV back, so JSON is the one form a sweep is read
// from. The layout is a comment preamble plus an RFC-4180 body.
// Preamble lines start with "# " and carry the non-tabular fields:
//
//	# schema atlahs.results/v1
//	# name fig8
//	# title Fig 8 — AI validation: ...
//	# mode quick
//	# param key value
//	# derived max_abs_err_pct 3.2
//	# note paper: ...
//
// The first CSV record is the header; each cell is "name:kind" or
// "name:kind:unit", so the column schema travels with the table. Data
// cells format as raw strings, decimal int64, or shortest-round-trip
// floats (strconv 'g', precision -1).
//
// # Diff schema (atlahs.diff/v1)
//
// A SweepDiff is the field-by-field comparison of two sweeps, the
// document behind `atlahs-analyze diff -json`. It is a write-only export
// like CSV. EncodeDiffJSON validates one SweepDiff and writes it as a
// single JSON object:
//
//	{
//	  "schema":  "atlahs.diff/v1",
//	  "a": "fig8", "b": "fig8",            // the compared sweeps' names
//	  "keys":    [{"name": "configuration", "kind": "string"}],
//	  "rows_a": 4, "rows_b": 4, "matched": 4, "changed": 1,
//	  "columns_only_a": [...], "columns_only_b": [...],   // optional
//	  "rows_only_a": [{"row": 3, "key": {...}}],          // optional
//	  "rows": [{"row": 0, "key": {"configuration": "llama7b"},
//	            "fields": [{"column": "measured", "kind": "duration",
//	                        "unit": "ps", "a": 100, "b": 120,
//	                        "abs": 20, "rel": 0.2}]}],
//	  "params":  [{"key": "mode", "a": "quick", "b": "full"}],
//	  "derived": [{"key": "runtime_ps", "a": 100, "b": 120,
//	               "abs": 20, "rel": 0.2}],
//	  "derived_only_a": [...], "derived_only_b": [...]    // optional
//	}
//
// Every delta is B relative to A: "abs" is B-A and "rel" is (B-A)/|A|,
// omitted when A is zero (the relative move is undefined) and for string
// cells. The document is sparse — only changed rows, params and derived
// values appear — so two identical sweeps diff to "changed": 0 with no
// rows. "keys" carries the columns rows were matched on; when empty, rows
// were matched by position and row diffs carry no "key" object. Like the
// results schema, atlahs.diff/v1 is append-only.
//
// # Workload-model schema (atlahs.model/v1)
//
// A WorkloadModel is a statistical workload model mined from a resolved
// GOAL schedule (internal/workload/synth, surfaced as sim.MineModel /
// `atlahs-synth mine`) and sampled back into schedules at arbitrary rank
// counts. EncodeModelJSON writes one model as a single JSON object:
//
//	{
//	  "schema":       "atlahs.model/v1",
//	  "comment":      "mined from run.mpi (frontend mpi)",  // optional provenance
//	  "source_ranks": 8, "source_ops": 1216,
//	  "depth_mean":   88, "depth_max": 88,   // dependency-chain profile
//	  "phases":       87,                    // generation supersteps
//	  "calc":         {...},                 // calc durations (ns), a dist
//	  "calc_ns_per_rank":  {...},            // per-rank total compute
//	  "sends_per_rank":    {...},            // per-rank message counts
//	  "sizes":        {...},                 // message sizes (bytes)
//	  "classes": [                           // traffic classes
//	    {"count": 2560, "sizes": {...},
//	     "offsets": [0, 80, ...]}            // 32-bin (dst-src) mod n histogram
//	  ],
//	  "calc_comm_ratio": 1.2                 // total calc ns / total sent bytes
//	}
//
// Every {...} above is a dist — an empirical distribution carrying its
// moments and histogram: {"count", "mean", "std", "min", "max", "hist":
// [{"lo", "hi", "n"}]} with ordered, non-overlapping integer buckets
// inside [min, max] whose "n" sum to "count" (exact single-value buckets
// for small supports, log2-width buckets otherwise). Traffic-class
// "offsets" histograms always have exactly 32 bins (ModelOffsetBins);
// bin i counts messages whose destination offset (dst-src+n) mod n falls
// in [i*n/32, (i+1)*n/32) of the source rank count n, which is what lets
// a model mined at 8 ranks place destinations sensibly at 100k.
// DecodeModelJSON validates all of this plus finite moments, so a decoded
// model is always safely samplable.
//
// Like the other schemas, atlahs.model/v1 is append-only (see the
// stability guarantee below): released field names keep their meaning and
// units (durations in integer nanoseconds, sizes in bytes).
// Generation from a model is deterministic for (model, ranks, seed), so a
// model document is a content-addressable workload: equal documents plus
// equal (ranks, seed) yield bit-identical schedules.
//
// # Metrics-snapshot schema (atlahs.metrics/v1)
//
// A MetricsSnapshot is a one-shot reading of a set of instruments: the
// document a run's engine/scheduler counters travel in
// (sim.Result.Metrics), the body of the service's GET
// /v1/runs/{id}/metrics, and GET /metrics?format=json, the same samples
// as the service's Prometheus text. EncodeMetricsJSON writes one
// snapshot as a single JSON object:
//
//	{
//	  "schema":  "atlahs.metrics/v1",
//	  "metrics": [
//	    {"name": "atlahs_engine_events_total", "type": "counter",
//	     "help": "...", "value": 240000},
//	    {"name": "atlahs_service_queue_depth", "type": "gauge",
//	     "label": "class", "label_value": "interactive", "value": 2},
//	    {"name": "atlahs_run_wall_seconds", "type": "histogram",
//	     "help": "...", "count": 3, "sum": 4.75,
//	     "buckets": [{"le": 0.5, "count": 2}, {"le": 2, "count": 2}]}
//	  ]
//	}
//
// Samples appear in the fixed order their producer lists them (each
// producer's list is a literal, and is its metric catalogue): a
// family's samples together, labelled children sorted by label value.
// Histogram buckets are cumulative over finite upper bounds; JSON
// cannot encode +Inf, so — unlike the Prometheus text exposition — the
// +Inf bucket is omitted and "count" carries the total observation
// count. Like the other schemas, atlahs.metrics/v1 is append-only:
// metric names may be added between releases but keep their meaning and
// units once released, and consumers should select samples by name.
//
// Timeline traces (Chrome trace-event JSON, see internal/telemetry) are
// not a results schema; a Store keeps them as opaque documents under
// traces/ via SaveTrace/LoadTrace, outside the sweep namespace.
//
// # One reader per document
//
// A document keeps a reader only while a non-test caller reads it back,
// and then exactly one:
//
//	atlahs.results/v1   DecodeJSON (atlahs-analyze diff)
//	atlahs.model/v1     DecodeModelJSON (atlahs-synth gen, sim's model source)
//	atlahs.metrics/v1   DecodeMetricsJSON (the benchmark's service client)
//	atlahs.runmeta/v1   Store.LoadMeta (atlahsd's restore)
//	atlahs.spec/v1      sim.UnmarshalSpec (atlahs -spec, atlahsd)
//	atlahs.sweep/v1     atlahsd's POST /v1/sweeps handler
//
// Three outputs are write-only exports that nothing in the toolchain
// reads back: the CSV export, atlahs.diff/v1 (`atlahs-analyze diff
// -json`) and atlahs.sweepset/v1 (atlahsd's sweep responses). Their tests
// compare encoded bytes instead of decoding them. A Store writes
// artifacts; atlahsd reads a stored artifact's bytes back and requires
// them to equal the artifact it rebuilds.
//
// # Stability guarantee
//
// One rule covers all eight versioned documents — atlahs.spec/v1,
// atlahs.results/v1, atlahs.diff/v1, atlahs.metrics/v1, atlahs.model/v1,
// atlahs.runmeta/v1, atlahs.sweep/v1 and atlahs.sweepset/v1. Append-only
// is a promise about writers: released field names, column kinds, cell
// encodings and units keep their meaning, new fields may be added, and
// renaming or retyping a field or changing a unit requires a new schema
// version string. Readers are strict: every reader in the toolchain goes
// through DecodeDoc, which refuses an unknown schema string, any field
// its version does not declare, and anything after the document but
// white space (the write-only exports have no reader). A reader older than the
// writer therefore refuses the newer document instead of silently
// dropping what it cannot see: an atlahsd rolled back to an older release skips the
// newer runs' sidecars with a logged warning and re-simulates those runs
// on demand. Column sets of individual experiments may grow new columns
// between releases — that changes the row schema a sweep carries, not the
// document layout, so consumers should select columns by name, not by
// position. Documents written to files and standard output go through
// EncodeDoc or MarshalDoc, in one canonical form: JSON indented by two
// spaces, followed by a newline.
//
// Encode→decode is lossless for every document with a reader:
// DecodeJSON(EncodeJSON(s)) reproduces the Sweep exactly (the round-trip
// suite pins this). Every encoder's bytes, the write-only exports'
// included, are SHA-256-pinned on fixtures.
package results

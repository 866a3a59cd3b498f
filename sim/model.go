package sim

import (
	"atlahs/internal/workload/synth"
	"atlahs/results"
)

// WorkloadModel is a statistical workload model (schema atlahs.model/v1):
// per-rank message-count, message-size and compute distributions mined
// from a resolved schedule, sampled back into schedules at arbitrary rank
// counts. The concrete type lives in atlahs/results alongside the other
// wire schemas, and its codec is the one every caller uses:
// results.EncodeModelJSON writes the document and results.DecodeModelJSON
// is its one reader.
type WorkloadModel = results.WorkloadModel

// MineModel extracts a statistical workload model from a resolved
// schedule (any source: a converted trace, a loaded GOAL file, a
// generated pattern). The comment is stored as provenance.
func MineModel(s *Schedule, comment string) (*WorkloadModel, error) {
	return synth.Mine(s, comment)
}

// GenerateFromModel samples a model into a schedule with the given rank
// count (ranks <= 0 means the model's source rank count). Deterministic:
// the same (model, ranks, seed) always yields a bit-identical schedule; a
// zero seed means 1.
func GenerateFromModel(m *WorkloadModel, ranks int, seed uint64) (*Schedule, error) {
	if seed == 0 {
		seed = 1
	}
	return synth.Generate(m, ranks, seed)
}

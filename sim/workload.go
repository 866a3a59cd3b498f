package sim

import (
	"bytes"
	"fmt"
	"os"

	"atlahs/internal/goal"
	"atlahs/results"
)

// Workload declares one simulation workload source. It is embedded by both
// Spec (the single-workload top level) and JobSpec (one composed job), so
// the two accept exactly the same sources with one shared validate/resolve
// path; exactly one source must be set.
type Workload struct {
	// GoalPath names a GOAL schedule file, textual or binary (auto-detected
	// by the binary magic). It is TracePath with the "goal" frontend.
	GoalPath string
	// GoalBytes holds a serialised GOAL schedule, textual or binary
	// (auto-detected). It is Trace with the "goal" frontend: a binary
	// schedule is decoded in place, not copied.
	GoalBytes []byte
	// Schedule is an in-memory GOAL schedule (e.g. from sim.NewBuilder or a
	// trace converter).
	Schedule *Schedule
	// Synthetic generates a microbenchmark traffic pattern through the
	// generator registry (its zero Seed inherits Spec.Seed).
	Synthetic *Synthetic
	// TracePath names a raw application trace file (nsys report, MPI
	// trace, SPC block-I/O trace, Chakra ET, or a GOAL file) to ingest
	// through the frontend registry. The format is auto-detected unless
	// Frontend names one explicitly.
	TracePath string
	// Trace holds a raw serialised application trace to ingest through the
	// frontend registry; see TracePath.
	Trace []byte
	// Frontend names the registered workload frontend converting TracePath
	// or Trace ("nsys", "mpi", "spc", "chakra", "goal", or a third-party
	// registration); "" auto-detects by content sniffing, then by file
	// extension.
	Frontend string
	// FrontendConfig is the frontend's typed configuration (e.g.
	// NsysConfig, MPIConfig, SPCConfig, ChakraConfig, or a third-party
	// frontend's own type). nil selects that frontend's defaults; a value
	// of the wrong type is an error, not a silent default.
	FrontendConfig any
	// Model generates a workload by sampling a mined statistical model
	// (schema atlahs.model/v1) at an arbitrary rank count. Its Doc carries
	// the model document inline; pair it with ModelPath to read the
	// document from a file instead.
	Model *ModelGen
	// ModelPath names an atlahs.model/v1 document file to sample. On its
	// own it generates at the model's source rank count with Spec.Seed;
	// set Model (with an empty Doc) alongside it to choose Ranks/Seed.
	ModelPath string
}

// ModelGen declares how a mined workload model is sampled back into a
// schedule (internal/workload/synth; see MineModel/GenerateFromModel). Its
// json tags are its atlahs.spec/v1 wire keys.
type ModelGen struct {
	// Ranks is the generated schedule's rank count; 0 means the model's
	// SourceRanks.
	Ranks int `json:"ranks,omitempty"`
	// Seed seeds the deterministic sampler; 0 inherits Spec.Seed. The same
	// (model, ranks, seed) triple always generates a bit-identical
	// schedule.
	Seed uint64 `json:"seed,omitempty"`
	// Doc is the serialised atlahs.model/v1 document. Leave it empty when
	// the enclosing Workload names a ModelPath instead.
	Doc []byte `json:"doc,omitempty"`
}

// workloadSourceList names every Workload source in declaration order, for
// error text.
const workloadSourceList = "GoalPath, GoalBytes, Schedule, Synthetic, TracePath, Trace, Model or ModelPath"

// sources counts the workload's sources. Model and ModelPath together
// describe one source (the path names the document, Model tunes the
// sampling), so they count once.
func (w *Workload) sources() int {
	n := 0
	if w.GoalPath != "" {
		n++
	}
	if len(w.GoalBytes) > 0 {
		n++
	}
	if w.Schedule != nil {
		n++
	}
	if w.Synthetic != nil {
		n++
	}
	if w.TracePath != "" {
		n++
	}
	if len(w.Trace) > 0 {
		n++
	}
	if w.Model != nil || w.ModelPath != "" {
		n++
	}
	return n
}

// validate checks the workload declaration without touching the
// filesystem: exactly one source, frontend fields only alongside a trace
// source, a resolvable frontend name, and synthetic/model parameters in
// range.
func (w *Workload) validate() error {
	switch n := w.sources(); n {
	case 0:
		return fmt.Errorf("sim: no workload; set one of %s", workloadSourceList)
	case 1:
	default:
		return fmt.Errorf("sim: %d workload sources; set exactly one of %s", n, workloadSourceList)
	}
	if (w.Frontend != "" || w.FrontendConfig != nil) && w.TracePath == "" && len(w.Trace) == 0 {
		return fmt.Errorf("sim: Frontend/FrontendConfig are only meaningful with a TracePath or Trace workload")
	}
	if w.Frontend != "" {
		if _, err := ResolveFrontend(w.Frontend, nil, ""); err != nil {
			return err
		}
	}
	if w.Synthetic != nil {
		return w.Synthetic.validate()
	}
	if w.Model != nil {
		if len(w.Model.Doc) > 0 && w.ModelPath != "" {
			return fmt.Errorf("sim: Model.Doc and ModelPath both set; carry the model document inline or by path, not both")
		}
		if len(w.Model.Doc) == 0 && w.ModelPath == "" {
			return fmt.Errorf("sim: Model needs a Doc (or a ModelPath naming the document file)")
		}
		if w.Model.Ranks < 0 {
			return fmt.Errorf("sim: Model.Ranks must be >= 0 (0 means the model's source rank count), got %d", w.Model.Ranks)
		}
	}
	return nil
}

// schedule resolves the workload source into a GOAL schedule, and reports
// whether it is validated in the sense of resolvedWorkload: made and
// checked by one of this module's producers, and held by no one else.
func (w *Workload) schedule(topSeed uint64) (*goal.Schedule, bool, error) {
	if err := w.validate(); err != nil {
		return nil, false, err
	}
	var (
		s        *goal.Schedule
		producer string
		err      error
	)
	switch {
	case w.GoalPath != "":
		s, producer, err = convertTraceFile(w.GoalPath, "goal", nil)
	case len(w.GoalBytes) > 0:
		s, producer, err = convertTrace(w.GoalBytes, "", "goal", nil)
	case w.Schedule != nil:
		return w.Schedule, false, nil
	case w.Synthetic != nil:
		s, err = w.Synthetic.generate(topSeed)
		producer = "generator " + w.Synthetic.Pattern
	case w.TracePath != "":
		s, producer, err = convertTraceFile(w.TracePath, w.Frontend, w.FrontendConfig)
	case len(w.Trace) > 0:
		s, producer, err = convertTrace(w.Trace, "", w.Frontend, w.FrontendConfig)
	default:
		s, err = w.modelSchedule(topSeed)
		producer = "model" // synth.Generate
	}
	return s, err == nil && validatingProducers[producer], err
}

// validatingProducers names the producers of this module, each of which
// validates the schedule it makes (goal.ParseBinary and ParseText, the
// NCCL pipeline, Schedgen, Direct Drive, the Chakra converter, the micro
// generators' MustBuild and synth.Generate): the frontends by their
// registered names and the generators as "generator " and their pattern.
// Registered names are unique and these register first, so no third-party
// producer can take one.
var validatingProducers = map[string]bool{
	"goal": true, "nsys": true, "mpi": true, "spc": true, "chakra": true,
	"generator ring": true, "generator alltoall": true, "generator incast": true,
	"generator permutation": true, "generator uniform": true, "generator bsp": true,
	"model": true,
}

// modelSchedule loads the model document, decodes it, and samples it into
// a schedule.
func (w *Workload) modelSchedule(topSeed uint64) (*goal.Schedule, error) {
	doc := []byte(nil)
	if w.Model != nil {
		doc = w.Model.Doc
	}
	if len(doc) == 0 {
		b, err := os.ReadFile(w.ModelPath)
		if err != nil {
			return nil, fmt.Errorf("sim: reading model document: %w", err)
		}
		doc = b
	}
	m, err := results.DecodeModelJSON(bytes.NewReader(doc))
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	ranks, seed := 0, uint64(0)
	if w.Model != nil {
		ranks, seed = w.Model.Ranks, w.Model.Seed
	}
	if seed == 0 {
		seed = topSeed
	}
	return GenerateFromModel(m, ranks, seed)
}

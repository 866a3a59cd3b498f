package sim

import (
	"fmt"
	"strings"

	"atlahs/internal/registry"
	"atlahs/internal/workload/micro"
	"atlahs/internal/workload/synth"
)

// GenRequest is the input to a registered workload generator: the
// normalised synthetic declaration (for pattern generators), the decoded
// statistical model (for model-backed generators), the requested rank
// count, and the resolved seed (never zero).
type GenRequest struct {
	// Synthetic is the declared pattern with its Seed already resolved.
	// Only meaningful to pattern generators.
	Synthetic Synthetic
	// Model is the decoded workload model. Only meaningful to generators
	// registered with FromModel.
	Model *WorkloadModel
	// Ranks is the requested rank count.
	Ranks int
	// Seed is the resolved deterministic seed.
	Seed uint64
}

// GeneratorDef describes one registered workload generator. The built-in
// microbenchmark patterns (ring, alltoall, incast, permutation, uniform,
// bsp) and the statistical model sampler register themselves; third-party
// generators join through RegisterGenerator and become valid
// Synthetic.Pattern names.
type GeneratorDef struct {
	// Name is the registry key (Synthetic.Pattern for pattern generators).
	Name string
	// FromModel marks a generator that samples GenRequest.Model instead of
	// a Synthetic pattern; it is excluded from SyntheticPatterns.
	FromModel bool
	// New builds the schedule for one request.
	New func(GenRequest) (*Schedule, error)
}

var generators = registry.New[GeneratorDef]("sim: generator")

// RegisterGenerator adds a workload generator to the registry. It panics
// on an empty name, a nil constructor, or a duplicate registration —
// generator names are a global namespace like backends and frontends.
func RegisterGenerator(def GeneratorDef) {
	if def.New == nil {
		panic(fmt.Sprintf("sim: RegisterGenerator(%q) with nil constructor", def.Name))
	}
	generators.Register(def.Name, def)
}

// LookupGenerator returns the registered generator definition.
func LookupGenerator(name string) (GeneratorDef, bool) { return generators.Lookup(name) }

// Generators lists every registered generator name, sorted.
func Generators() []string { return generators.Names() }

// SyntheticPatterns lists the generator names Synthetic understands
// (every registered generator that is not model-backed), sorted.
func SyntheticPatterns() []string {
	var names []string
	for _, name := range Generators() {
		if def, ok := LookupGenerator(name); ok && !def.FromModel {
			names = append(names, name)
		}
	}
	return names
}

// patternGenerator resolves a Synthetic.Pattern name, producing the one
// unknown-pattern error shared by validation and generation.
func patternGenerator(name string) (GeneratorDef, error) {
	def, ok := LookupGenerator(name)
	if !ok || def.FromModel {
		return GeneratorDef{}, fmt.Errorf("sim: unknown synthetic pattern %q (want one of %s)",
			name, strings.Join(SyntheticPatterns(), ", "))
	}
	return def, nil
}

// modelGeneratorName is the registry key of the statistical model sampler.
const modelGeneratorName = "model"

func init() {
	RegisterGenerator(GeneratorDef{Name: "ring", New: func(req GenRequest) (*Schedule, error) {
		return micro.Ring(req.Ranks, req.Synthetic.Bytes), nil
	}})
	RegisterGenerator(GeneratorDef{Name: "alltoall", New: func(req GenRequest) (*Schedule, error) {
		return micro.AllToAll(req.Ranks, req.Synthetic.Bytes), nil
	}})
	RegisterGenerator(GeneratorDef{Name: "incast", New: func(req GenRequest) (*Schedule, error) {
		fanin := req.Synthetic.Fanin
		if fanin <= 0 {
			fanin = req.Ranks - 1
		}
		return micro.Incast(req.Ranks, fanin, req.Synthetic.Bytes), nil
	}})
	RegisterGenerator(GeneratorDef{Name: "permutation", New: func(req GenRequest) (*Schedule, error) {
		return micro.Permutation(req.Ranks, req.Synthetic.Bytes, req.Seed), nil
	}})
	RegisterGenerator(GeneratorDef{Name: "uniform", New: func(req GenRequest) (*Schedule, error) {
		msgs := req.Synthetic.Msgs
		if msgs <= 0 {
			msgs = 100
		}
		return micro.UniformRandom(req.Ranks, msgs, req.Synthetic.Bytes, req.Seed), nil
	}})
	RegisterGenerator(GeneratorDef{Name: "bsp", New: func(req GenRequest) (*Schedule, error) {
		phases := req.Synthetic.Phases
		if phases <= 0 {
			phases = 4
		}
		calc := req.Synthetic.CalcNanos
		if calc <= 0 {
			calc = 1000
		}
		return micro.BulkSynchronous(req.Ranks, phases, req.Synthetic.Bytes, calc), nil
	}})
	RegisterGenerator(GeneratorDef{Name: modelGeneratorName, FromModel: true, New: func(req GenRequest) (*Schedule, error) {
		return synth.Generate(req.Model, req.Ranks, req.Seed)
	}})
}

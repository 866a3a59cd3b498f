package sim

import (
	"fmt"
	"strings"

	"atlahs/internal/registry"
	"atlahs/internal/workload/micro"
)

// GenRequest is the input to a registered workload generator: the
// normalised synthetic declaration, the requested rank count, and the
// resolved seed (never zero).
type GenRequest struct {
	// Synthetic is the declared pattern with its Seed already resolved.
	Synthetic Synthetic
	// Ranks is the requested rank count.
	Ranks int
	// Seed is the resolved deterministic seed.
	Seed uint64
}

// GeneratorDef describes one registered workload generator. The built-in
// microbenchmark patterns (ring, alltoall, incast, permutation, uniform,
// bsp) register themselves; third-party generators join through
// RegisterGenerator. Every registered name is a valid Synthetic.Pattern.
type GeneratorDef struct {
	// Name is the registry key and the Synthetic.Pattern that selects it.
	Name string
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

// Generators lists every registered generator name, sorted: the pattern
// names Synthetic understands.
func Generators() []string { return generators.Names() }

// patternGenerator resolves a Synthetic.Pattern name, producing the one
// unknown-pattern error shared by validation and generation.
func patternGenerator(name string) (GeneratorDef, error) {
	def, ok := LookupGenerator(name)
	if !ok {
		return GeneratorDef{}, fmt.Errorf("sim: unknown synthetic pattern %q (want one of %s)",
			name, strings.Join(Generators(), ", "))
	}
	return def, nil
}

// twoRanks refuses a rank count below 2 for a pattern in which every rank
// sends to another.
func twoRanks(pattern string, ranks int) error {
	if ranks < 2 {
		return fmt.Errorf("sim: pattern %q needs at least 2 ranks, got %d", pattern, ranks)
	}
	return nil
}

func init() {
	RegisterGenerator(GeneratorDef{Name: "ring", New: func(req GenRequest) (*Schedule, error) {
		if err := twoRanks("ring", req.Ranks); err != nil {
			return nil, err
		}
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
		if err := twoRanks("permutation", req.Ranks); err != nil {
			return nil, err
		}
		return micro.Permutation(req.Ranks, req.Synthetic.Bytes, req.Seed), nil
	}})
	RegisterGenerator(GeneratorDef{Name: "uniform", New: func(req GenRequest) (*Schedule, error) {
		if err := twoRanks("uniform", req.Ranks); err != nil {
			return nil, err
		}
		return micro.UniformRandom(req.Ranks, req.Synthetic.msgs(), req.Synthetic.Bytes, req.Seed), nil
	}})
	RegisterGenerator(GeneratorDef{Name: "bsp", New: func(req GenRequest) (*Schedule, error) {
		calc := req.Synthetic.CalcNanos
		if calc <= 0 {
			calc = 1000
		}
		return micro.BulkSynchronous(req.Ranks, req.Synthetic.phases(), req.Synthetic.Bytes, calc), nil
	}})
}

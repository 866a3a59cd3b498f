package sim

import (
	"fmt"

	"atlahs/internal/core"
	"atlahs/internal/registry"
)

// Env is the per-run context handed to a backend factory: everything a
// backend may need that only becomes known once the workload is resolved.
type Env struct {
	// Ranks is the schedule's rank count (= simulated nodes). Backends that
	// model a fabric size their topology to cover it.
	Ranks int
	// Seed is the Spec's top-level seed; configs with their own zero seed
	// inherit it.
	Seed uint64
}

// Definition describes one registered backend: its name (the Spec.Backend
// key), whether it may run on the sharded parallel engine, and the factory
// that builds a fresh instance per run.
type Definition struct {
	// Name identifies the backend ("lgs", "pkt", "fluid", ...).
	Name string
	// Parallel declares that the backend partitions its state per rank and
	// provides a cross-rank lookahead bound, so it can run on the parallel
	// engine. Backends with shared fabric state must leave it false;
	// Spec.Validate rejects any Workers other than 0 or 1 for them instead
	// of silently running serially.
	Parallel bool
	// New builds a single-run backend instance. cfg is Spec.Config, still
	// untyped: the factory owns the type check and must return a descriptive
	// error on a mismatch (see ConfigAs). cfg == nil selects defaults.
	// Third-party factories name the contract through this package's
	// aliases: func(cfg any, env sim.Env) (sim.Backend, error).
	New func(cfg any, env Env) (core.Backend, error)
	// NewConfig, when non-nil, returns a pointer to a fresh zero value of
	// the backend's config type — the hook the spec codec
	// (MarshalSpec/UnmarshalSpec) uses to resolve "config" wire payloads by
	// backend name. A backend that leaves it nil keeps working in-process
	// but rejects wire specs that carry a config for it. The config type
	// must round-trip through encoding/json for the codec to accept it.
	NewConfig func() any
}

var backends = registry.New[Definition]("sim: backend")

// Register adds a backend to the registry. The built-in backends ("lgs",
// "pkt", "fluid") self-register at init; third parties register theirs the
// same way. Registering an empty name, a nil factory, or a name that is
// already taken panics: those are programming errors at wiring time, not
// runtime conditions.
func Register(def Definition) {
	if def.New == nil {
		panic(fmt.Sprintf("sim: Register(%q) with nil factory", def.Name))
	}
	backends.Register(def.Name, def)
}

// Lookup returns the named backend's definition.
func Lookup(name string) (Definition, bool) { return backends.Lookup(name) }

// Backends lists the registered backend names, sorted.
func Backends() []string { return backends.Names() }

// ConfigAs coerces a Spec.Config value to the backend's config type T:
// nil and a nil *T select the zero value (defaults), T and *T pass
// through, and anything else is reported as a config-type mismatch.
// Backend factories — including third-party ones — are expected to route
// their cfg through this so mismatch errors read uniformly.
func ConfigAs[T any](backendName string, cfg any) (T, error) {
	return registry.ConfigAs[T]("sim: backend", backendName, cfg)
}

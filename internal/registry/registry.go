// Package registry is the one name → definition table behind the
// toolchain's three plug-in points: simulation backends (sim.Register),
// workload frontends (frontend.Register) and workload generators
// (sim.RegisterGenerator). Each owns a Registry of its own definition
// type and keeps its exported functions; what they share — the lock, the
// wiring-time panics, sorted listing and config coercion — is written
// here once.
package registry

import (
	"fmt"
	"sort"
	"sync"
)

// Registry maps names to definitions of type T. The zero value is not
// usable; create one with New. All methods are safe for concurrent use:
// built-ins register from init functions, but third parties may register
// while runs are already looking names up.
type Registry[T any] struct {
	// what names the registered thing in panic messages, including the
	// owning package ("sim: backend", "frontend:").
	what string
	mu   sync.RWMutex
	m    map[string]T
}

// New creates an empty registry; what prefixes its panic messages.
func New[T any](what string) *Registry[T] {
	return &Registry[T]{what: what, m: map[string]T{}}
}

// Register adds a definition. An empty name or one that is already taken
// panics: those are programming errors at wiring time, not runtime
// conditions.
func (r *Registry[T]) Register(name string, def T) {
	if name == "" {
		panic(r.what + " registered with an empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		panic(fmt.Sprintf("%s %q registered twice", r.what, name))
	}
	r.m[name] = def
}

// Lookup returns the named definition.
func (r *Registry[T]) Lookup(name string) (T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	def, ok := r.m[name]
	return def, ok
}

// Names lists the registered names, sorted.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.m))
	for name := range r.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ConfigAs coerces an untyped config value to a definition's own config
// type T: nil and a nil *T select the zero value (defaults), T and *T pass
// through, and anything else is reported as a config-type mismatch against
// the named owner (what as in New, name the registered name).
func ConfigAs[T any](what, name string, cfg any) (T, error) {
	var zero T
	switch v := cfg.(type) {
	case nil:
		return zero, nil
	case T:
		return v, nil
	case *T:
		if v == nil {
			return zero, nil
		}
		return *v, nil
	}
	return zero, fmt.Errorf("%s %q wants a %T config, got %T", what, name, zero, cfg)
}

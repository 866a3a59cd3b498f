// Package frontend is the workload-ingestion registry of the ATLAHS
// toolchain: the one place where application trace formats meet the GOAL
// intermediate representation (paper Fig 2, green path). A Definition
// names one trace format, knows how to recognise it (content sniffing on
// the first bytes, extension fallback), and converts a raw trace held in
// memory into a GOAL schedule.
//
// The registry mirrors the backend registry on the other side of the
// toolchain: converters self-register at init (the nsys/NCCL pipeline,
// Schedgen for MPI traces, the Direct Drive storage model for SPC traces,
// the Chakra execution-trace converter), the GOAL codecs themselves are
// registered here as the "goal" pass-through frontend, and third-party
// ingestion plugs in the same way. The sim facade re-exports the registry
// (sim.RegisterFrontend) and resolves Spec trace workloads through it.
package frontend

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"

	"atlahs/internal/goal"
	"atlahs/internal/registry"
)

// Definition describes one registered workload frontend: a trace format
// and its trace-to-GOAL conversion.
type Definition struct {
	// Name identifies the frontend ("goal", "nsys", "mpi", "spc",
	// "chakra", ...): the Spec.Frontend key.
	Name string
	// Extensions lists the file extensions (with leading dot, lower-case)
	// that map to this format when content sniffing is inconclusive.
	Extensions []string
	// Sniff reports whether a trace starting with the given prefix (up to
	// SniffLen bytes; the whole input when shorter) looks like this
	// format. Sniffers must be mutually exclusive across registered
	// frontends — detection errors out on ambiguity rather than picking
	// one.
	Sniff func(prefix []byte) bool
	// Convert converts one whole trace, held in b, to a GOAL schedule. cfg
	// is the frontend's typed configuration (see ConfigAs); nil selects
	// defaults. A trace is bytes because every parser wants to see all of
	// it: it sizes what it builds from a count and tokenises in place, and
	// a GOAL schedule carried in Spec.Trace reaches goal.Decode as the
	// caller's slice, never a copy.
	Convert func(b []byte, cfg any) (*goal.Schedule, error)
	// NewConfig, when non-nil, returns a pointer to a fresh zero value of
	// the frontend's config type — the hook the sim spec codec uses to
	// resolve "frontend_config" wire payloads by frontend name. Frontends
	// that take no config (the "goal" pass-through) leave it nil; their
	// wire specs then reject config payloads. The config type must
	// round-trip through encoding/json for the codec to accept it.
	NewConfig func() any
}

// SniffLen is how many leading bytes detection hands to Sniff.
const SniffLen = 4096

var frontends = registry.New[Definition]("frontend:")

// Register adds a frontend to the registry. The built-in frontends
// self-register at init; third parties register theirs the same way.
// Registering an empty name, a nil converter, or a name that is already
// taken panics: those are programming errors at wiring time, not runtime
// conditions.
func Register(def Definition) {
	if def.Convert == nil {
		panic(fmt.Sprintf("frontend: Register(%q) with nil converter", def.Name))
	}
	frontends.Register(def.Name, def)
}

// Lookup returns the named frontend's definition.
func Lookup(name string) (Definition, bool) { return frontends.Lookup(name) }

// Names lists the registered frontend names, sorted.
func Names() []string { return frontends.Names() }

// Detect resolves which frontend owns a trace: content sniffing on the
// prefix first (exactly one sniffer may claim it), the path's extension
// as the fallback. path may be empty for in-memory traces.
func Detect(prefix []byte, path string) (Definition, error) {
	names := Names()
	def := func(name string) Definition {
		d, _ := Lookup(name) // names only grow: a listed name resolves
		return d
	}

	var matches []string
	for _, name := range names {
		if s := def(name).Sniff; s != nil && s(prefix) {
			matches = append(matches, name)
		}
	}
	if len(matches) == 1 {
		return def(matches[0]), nil
	}
	if len(matches) > 1 {
		return Definition{}, fmt.Errorf("frontend: trace matches %d formats (%s); name one explicitly",
			len(matches), strings.Join(matches, ", "))
	}
	if ext := strings.ToLower(filepath.Ext(path)); ext != "" {
		// Like sniffing, an extension claimed by several frontends is an
		// error, not an alphabetical pick.
		var claims []string
		for _, name := range names {
			for _, e := range def(name).Extensions {
				if e == ext {
					claims = append(claims, name)
				}
			}
		}
		if len(claims) == 1 {
			return def(claims[0]), nil
		}
		if len(claims) > 1 {
			return Definition{}, fmt.Errorf("frontend: extension %q is claimed by %d frontends (%s); name one explicitly",
				ext, len(claims), strings.Join(claims, ", "))
		}
	}
	return Definition{}, fmt.Errorf("frontend: cannot detect trace format (no sniffer matched, extension %q unknown); registered frontends: %s",
		filepath.Ext(path), strings.Join(names, ", "))
}

// ConfigAs coerces a frontend config value to the frontend's own type T:
// nil and a nil *T select the zero value (defaults), T and *T pass
// through, and anything else is reported as a config-type mismatch.
// Frontend converters — including third-party ones — are expected to
// route their cfg through this so mismatch errors read uniformly.
func ConfigAs[T any](frontendName string, cfg any) (T, error) {
	return registry.ConfigAs[T]("frontend:", frontendName, cfg)
}

// FirstLine returns the first line of prefix that is neither blank nor a
// comment (lines starting with any string in commentPrefixes), without
// its trailing newline — the unit most text-format sniffers decide on.
func FirstLine(prefix []byte, commentPrefixes ...string) []byte {
	for len(prefix) > 0 {
		line := prefix
		if i := bytes.IndexByte(prefix, '\n'); i >= 0 {
			line, prefix = prefix[:i], prefix[i+1:]
		} else {
			prefix = nil
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		comment := false
		for _, c := range commentPrefixes {
			if bytes.HasPrefix(line, []byte(c)) {
				comment = true
				break
			}
		}
		if !comment {
			return line
		}
	}
	return nil
}

func init() {
	// The GOAL codecs themselves are the pass-through frontend: a "trace"
	// that is already a schedule, textual or binary. goal.Decode walks the
	// caller's slice in place, so a binary schedule is never copied on its
	// way to the decoder.
	Register(Definition{
		Name:       "goal",
		Extensions: []string{".goal", ".bin"},
		Sniff: func(prefix []byte) bool {
			return goal.IsBinary(prefix) || bytes.HasPrefix(FirstLine(prefix, "//"), []byte("num_ranks "))
		},
		Convert: func(b []byte, cfg any) (*goal.Schedule, error) {
			if cfg != nil {
				return nil, fmt.Errorf("frontend: \"goal\" takes no config, got %T", cfg)
			}
			return goal.Decode(b)
		},
	})
}

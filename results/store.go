package results

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Store is a directory of atlahs.results/v1 JSON artifacts addressed by
// sweep name: every sweep lives at <dir>/<name>.json, the invariant the
// end-to-end tests (internal/e2e) check. The simulation
// service persists one artifact per run id through a Store, and
// consumers (dashboards, regression differs) look runs up by the same
// name.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) an artifact directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("results: store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("results: creating artifact store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// Path returns where the named sweep's artifact lives, without checking
// that it exists.
func (st *Store) Path(name string) string {
	return filepath.Join(st.dir, name+".json")
}

// checkName rejects names that are not valid sweep names — which also
// keeps externally-supplied lookups (an HTTP run id, say) from escaping
// the store directory.
func (st *Store) checkName(name string) error {
	if !isName(name) {
		return fmt.Errorf("results: store name %q is not a snake_case identifier", name)
	}
	return nil
}

// Save validates the sweep and writes its artifact atomically (temp file
// plus rename), so a reader never observes a half-written artifact: it
// encodes the sweep with AppendJSON and writes the bytes as SaveJSON does.
func (st *Store) Save(s *Sweep) error {
	artifact, err := AppendJSON(nil, s)
	if err != nil {
		return err
	}
	return st.SaveJSON(s.Name, artifact)
}

// SaveJSON writes artifact, the document AppendJSON encoded for the sweep
// called name, as that sweep's artifact, atomically like Save. A caller
// that holds a sweep's encoding already stores it without encoding the
// sweep a second time.
func (st *Store) SaveJSON(name string, artifact []byte) error {
	if err := st.checkName(name); err != nil {
		return err
	}
	return writeAtomic(st.dir, name, "sweep", func(w io.Writer) error {
		_, err := w.Write(artifact)
		return err
	})
}

// writeAtomic writes <dir>/<name>.json through a temp file in dir and a
// rename, removing the temp file on any failure. write's own error is
// returned as is; the file operations around it are labelled.
func writeAtomic(dir, name, label string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dir, "."+name+".tmp-*")
	if err != nil {
		return saveErr(label, name, err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return saveErr(label, name, err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name+".json")); err != nil {
		return saveErr(label, name, err)
	}
	return nil
}

func saveErr(label, name string, err error) error {
	return fmt.Errorf("results: saving %s %q: %w", label, name, err)
}

// Names lists the sweeps stored in the directory, sorted.
func (st *Store) Names() ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(st.dir, "*.json"))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(paths))
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".json")
		if isName(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Entry describes one stored artifact, for consumers that need more than
// the name — the simulation service orders its rebuilt run index by
// ModTime, oldest first, so its cache bound evicts the stalest runs.
type Entry struct {
	Name    string
	Size    int64
	ModTime time.Time
}

// List returns one Entry per stored artifact, sorted by name. An artifact
// that disappears between the directory scan and its stat (a concurrent
// writer's rename) is skipped rather than erred on.
func (st *Store) List() ([]Entry, error) {
	names, err := st.Names()
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, len(names))
	for _, name := range names {
		info, err := os.Stat(st.Path(name))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, fmt.Errorf("results: listing store: %w", err)
		}
		entries = append(entries, Entry{Name: name, Size: info.Size(), ModTime: info.ModTime()})
	}
	return entries, nil
}

// metaDir is where per-artifact metadata sidecars live. A subdirectory
// keeps them out of the *.json artifact namespace that Names and List
// glob over.
func (st *Store) metaDir() string { return filepath.Join(st.dir, "meta") }

// MetaPath returns where the named artifact's metadata sidecar lives,
// without checking that it exists.
func (st *Store) MetaPath(name string) string {
	return filepath.Join(st.metaDir(), name+".json")
}

// MetaSchema identifies the metadata sidecar LoadMeta reads: the
// simulation service's run-index entry, written next to every completed
// run's artifact. Like the other schemas it is append-only.
const MetaSchema = "atlahs.runmeta/v1"

// SaveMeta writes a small JSON metadata document next to (but outside the
// namespace of) the named artifact, atomically. The sidecar is the
// service's durable run index entry: whatever a consumer needs to trust a
// stored artifact again after a restart without re-deriving it.
func (st *Store) SaveMeta(name string, v any) error {
	if err := st.checkName(name); err != nil {
		return err
	}
	if err := os.MkdirAll(st.metaDir(), 0o755); err != nil {
		return fmt.Errorf("results: creating meta directory: %w", err)
	}
	return writeAtomic(st.metaDir(), name, "meta for", func(w io.Writer) error {
		if err := EncodeDoc(w, v); err != nil {
			return saveErr("meta for", name, err)
		}
		return nil
	})
}

// tracesDir is where per-run timeline traces live. Like meta, the
// subdirectory keeps them out of the *.json artifact namespace that
// Names and List glob over.
func (st *Store) tracesDir() string { return filepath.Join(st.dir, "traces") }

// TracePath returns where the named run's timeline trace lives, without
// checking that it exists.
func (st *Store) TracePath(name string) string {
	return filepath.Join(st.tracesDir(), name+".json")
}

// SaveTrace writes the named run's timeline trace atomically, streaming
// the document through write (typically telemetry.(*Timeline).Encode).
func (st *Store) SaveTrace(name string, write func(io.Writer) error) error {
	if err := st.checkName(name); err != nil {
		return err
	}
	if err := os.MkdirAll(st.tracesDir(), 0o755); err != nil {
		return fmt.Errorf("results: creating traces directory: %w", err)
	}
	return writeAtomic(st.tracesDir(), name, "trace for", func(w io.Writer) error {
		if err := write(w); err != nil {
			return saveErr("trace for", name, err)
		}
		return nil
	})
}

// LoadTrace reads the named run's timeline trace. The bytes are returned
// as written; callers that need structure decode the Chrome trace-event
// JSON themselves.
func (st *Store) LoadTrace(name string) ([]byte, error) {
	if err := st.checkName(name); err != nil {
		return nil, err
	}
	return os.ReadFile(st.TracePath(name))
}

// LoadMeta reads the named artifact's atlahs.runmeta/v1 sidecar into v
// through DecodeDoc, so a corrupted, foreign or newer document fails
// loudly instead of decoding into a half-empty value.
func (st *Store) LoadMeta(name string, v any) error {
	if err := st.checkName(name); err != nil {
		return err
	}
	b, err := os.ReadFile(st.MetaPath(name))
	if err != nil {
		return err
	}
	if err := DecodeDoc(b, "run metadata", MetaSchema, v); err != nil {
		return fmt.Errorf("results: loading meta for %q: %w", name, err)
	}
	return nil
}

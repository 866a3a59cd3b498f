package service

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"sort"

	"atlahs/results"
	"atlahs/sim"
)

// runMeta is the atlahs.runmeta/v1 document (results.MetaSchema): the
// durable run-index entry persisted next to every completed run's
// artifact. It carries what the artifact alone cannot:
// the full fingerprint the run id derives from, the lookaside keys that
// pointed at the run, and the complete sim.Result (the artifact's sweep
// only exports the deterministic per-rank table and headline scalars).
// A restarted service trusts a stored artifact only when its sidecar
// decodes, agrees with the artifact, and re-derives the same address.
type runMeta struct {
	Schema      string      `json:"schema"`
	ID          string      `json:"id"`
	Fingerprint string      `json:"fingerprint"`
	LookKeys    []string    `json:"lookaside_keys,omitempty"`
	Result      *sim.Result `json:"result"`
}

// runIDRE matches the ids Submit files runs under: "r_" plus the leading
// 16 hex digits of the spec fingerprint. Rebuild only considers store
// entries with this shape — the store may hold other artifacts.
var runIDRE = regexp.MustCompile(`^r_[0-9a-f]{16}$`)

// saveMeta persists the run's index sidecar; called by execute after the
// artifact itself is stored, so rebuild never sees a sidecar without its
// artifact.
func (s *Service) saveMeta(r *run, res *sim.Result) error {
	s.mu.Lock()
	keys := append([]string(nil), r.lookKeys...)
	s.mu.Unlock()
	if err := s.store.SaveMeta(r.id, runMeta{
		Schema:      results.MetaSchema,
		ID:          r.id,
		Fingerprint: r.fp,
		LookKeys:    keys,
		Result:      res,
	}); err != nil {
		return fmt.Errorf("service: persisting run metadata: %w", err)
	}
	return nil
}

// rebuild reconstructs the run index from the artifacts that survived in
// the store — the cure for cache amnesia: a restarted service answers
// GET /v1/runs/{id}, artifact reads and identical re-submissions with
// cache hits instead of re-simulating. Artifacts that fail any validation
// (missing or corrupt sidecar, undecodable sweep, address mismatch) are
// skipped with a logged warning and left on disk; they are never trusted.
// Called from New before the service is shared, so it needs no locking.
func (s *Service) rebuild() {
	entries, err := s.store.List()
	if err != nil {
		s.log.Warn("service: cannot list artifact store", "dir", s.store.Dir(), "err", err)
		return
	}
	// Oldest artifacts first, so doneOrder evicts the stalest runs once
	// new completions push the index past the cache bound.
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].ModTime.Before(entries[j].ModTime) })
	restored := 0
	for _, e := range entries {
		if !runIDRE.MatchString(e.Name) {
			continue // not a service run artifact (e.g. an experiment sweep)
		}
		r, err := s.restoreRun(e.Name)
		if err != nil {
			s.log.Warn("service: skipping stored run", "run", e.Name, "err", err)
			continue
		}
		r.mx = s.metrics
		s.runs[e.Name] = r
		s.doneOrder = append(s.doneOrder, e.Name)
		for _, key := range r.lookKeys {
			s.lookaside[key] = e.Name
		}
		restored++
	}
	// The in-memory index keeps at most Cache runs; older artifacts stay
	// on disk (the store is the durable record) but are re-admitted like
	// cold submissions.
	for len(s.doneOrder) > s.cfg.Cache {
		evict := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		if r, ok := s.runs[evict]; ok {
			for _, key := range r.lookKeys {
				delete(s.lookaside, key)
			}
			delete(s.runs, evict)
			s.metrics.evictions.With("run").Inc()
		}
		restored--
	}
	if restored > 0 {
		s.log.Info("service: rebuilt run index", "dir", s.store.Dir(), "restored", restored)
	}
}

// restoreRun validates one stored run and reconstructs its in-memory
// entry. Every check errs on the side of re-simulating: an entry is only
// restored when the sidecar decodes as exactly one atlahs.runmeta/v1
// document (a sidecar written by a newer version, with fields this one
// does not know, is skipped like a corrupt one), names this run, carries
// a result whose metrics snapshot validates, its fingerprint re-derives
// the run id, the artifact bytes decode as a valid atlahs.results/v1
// sweep under the same name, and artifact and sidecar agree on the
// headline result.
func (s *Service) restoreRun(id string) (*run, error) {
	var meta runMeta
	if err := s.store.LoadMeta(id, &meta); err != nil {
		return nil, fmt.Errorf("metadata sidecar: %w", err)
	}
	if meta.ID != id {
		return nil, fmt.Errorf("metadata sidecar names run %q", meta.ID)
	}
	if meta.Result == nil {
		return nil, fmt.Errorf("metadata sidecar carries no result")
	}
	if m := meta.Result.Metrics; m != nil {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("metadata sidecar: %w", err)
		}
	}
	if len(meta.Fingerprint) < 16 || "r_"+meta.Fingerprint[:16] != id {
		return nil, fmt.Errorf("fingerprint %q does not derive run id %s", meta.Fingerprint, id)
	}
	artifact, err := os.ReadFile(s.store.Path(id))
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	sweep, err := results.DecodeJSON(bytes.NewReader(artifact))
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	if sweep.Name != id {
		return nil, fmt.Errorf("artifact holds sweep %q", sweep.Name)
	}
	if got, want := sweep.Derived["runtime_ps"], float64(meta.Result.Runtime); got != want {
		return nil, fmt.Errorf("artifact runtime %v disagrees with sidecar %v", got, want)
	}
	return newDoneRun(id, meta.Fingerprint, meta.Result, artifact, meta.LookKeys), nil
}

package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"atlahs/sim"
)

// SweepSchema identifies the wire payload of POST /v1/sweeps: one JSON
// object holding N atlahs.spec/v1 specs submitted as a unit.
const SweepSchema = "atlahs.sweep/v1"

// SweepRequest is the atlahs.sweep/v1 document: the body of POST
// /v1/sweeps, which `atlahs -submit URL -sweep` writes.
type SweepRequest struct {
	Schema string            `json:"schema"`
	Specs  []json.RawMessage `json:"specs"`
}

// maxSweepSpecs bounds one batch — far above any experiments figure, far
// below an admission-bookkeeping blowup.
const maxSweepSpecs = 4096

// batch is one submitted sweep: the unique runs behind its specs, in
// first-appearance order. Holding *run pointers keeps the combined view
// coherent even after the run cache evicts an entry.
type batch struct {
	id    string
	specs int
	runs  []*run
}

// BatchSnapshot is a point-in-time combined view of one sweep.
type BatchSnapshot struct {
	// ID is the sweep's content address: "b_" plus the leading 16 hex
	// digits of the SHA-256 over its sorted member run ids — the same
	// specs always form the same sweep.
	ID string
	// Specs counts the submitted specs; Runs holds one snapshot per
	// unique fingerprint among them (duplicates collapse), in
	// first-appearance order.
	Specs int
	Runs  []Snapshot
	// Done, Failed and Cached count member runs by outcome; Cached is
	// meaningful on submission snapshots only (like Snapshot.Cached).
	Done, Failed, Cached int
}

// Terminal reports whether every member run reached a terminal state.
func (b BatchSnapshot) Terminal() bool { return b.Done+b.Failed == len(b.Runs) }

// SubmitSweep admits one batch of specs as a unit, through the same admit
// call as a single Submit: every spec is fingerprinted, duplicates
// collapse — against each other and against the content-addressed cache —
// and the remaining cold runs are enqueued atomically (all or none, so a
// sweep is never half-admitted; a queue without room for all of them
// fails with ErrQueueFull). The batch stays
// addressable by its content-derived id for combined status and artifact
// views. An empty class queues the sweep under its own per-batch fairness
// class, so one giant sweep cannot starve interactive submissions.
func (s *Service) SubmitSweep(class string, specs []sim.Spec) (BatchSnapshot, error) {
	if len(specs) == 0 {
		return BatchSnapshot{}, fmt.Errorf("service: a sweep needs at least one spec")
	}
	if len(specs) > maxSweepSpecs {
		return BatchSnapshot{}, fmt.Errorf("service: sweep has %d specs, the limit is %d", len(specs), maxSweepSpecs)
	}
	for i := range specs {
		if specs[i].Observer != nil {
			return BatchSnapshot{}, fmt.Errorf("service: sweep spec %d: specs may not carry an Observer; use Subscribe on the returned run ids", i)
		}
	}
	adm, at, err := s.admit(class, specs)
	if err != nil {
		if at >= 0 {
			err = fmt.Errorf("service: sweep spec %d: %w", at, err)
		}
		return BatchSnapshot{}, err
	}
	b := &batch{specs: len(specs), runs: make([]*run, len(adm))}
	snap := BatchSnapshot{Specs: len(specs), Runs: make([]Snapshot, len(adm))}
	ids := make([]string, len(adm))
	for i, a := range adm {
		b.runs[i], snap.Runs[i], ids[i] = a.run, a.snap, a.run.id
		if a.snap.Status == StatusDone {
			snap.Done++
		}
		if a.snap.Cached {
			snap.Cached++
		}
	}
	b.id = sweepID(ids)
	snap.ID = b.id
	s.mu.Lock()
	s.noteBatchLocked(b)
	s.mu.Unlock()
	return snap, nil
}

// noteBatchLocked indexes a sweep and evicts the oldest past the bound
// (the run-cache bound doubles as the batch bound). Re-submitting the
// same sweep refreshes its entry instead of duplicating it. The caller
// holds s.mu.
func (s *Service) noteBatchLocked(b *batch) {
	if _, ok := s.batches[b.id]; !ok {
		s.batchOrder = append(s.batchOrder, b.id)
	}
	s.batches[b.id] = b
	for len(s.batchOrder) > s.cfg.Cache {
		evict := s.batchOrder[0]
		s.batchOrder = s.batchOrder[1:]
		delete(s.batches, evict)
		s.metrics.evictedSweeps.Inc()
	}
}

// GetSweep returns the combined view of a submitted sweep. Run snapshots
// carry their live status; Cached is false, as on Get.
func (s *Service) GetSweep(id string) (BatchSnapshot, bool) {
	s.mu.Lock()
	b, ok := s.batches[id]
	s.mu.Unlock()
	if !ok {
		return BatchSnapshot{}, false
	}
	return b.snapshot(), true
}

// WaitSweep blocks until every member run reaches a terminal state
// (returning the final combined view) or ctx ends (returning ctx's
// error). Like Wait, an already-terminal sweep returns even on a
// cancelled context.
func (s *Service) WaitSweep(ctx context.Context, id string) (BatchSnapshot, error) {
	s.mu.Lock()
	b, ok := s.batches[id]
	s.mu.Unlock()
	if !ok {
		return BatchSnapshot{}, fmt.Errorf("service: unknown sweep %q", id)
	}
	for _, r := range b.runs {
		select {
		case <-r.done:
			continue
		default:
		}
		select {
		case <-r.done:
		case <-ctx.Done():
			return BatchSnapshot{}, ctx.Err()
		}
	}
	return b.snapshot(), nil
}

// sweepRuns returns the member runs of a sweep for the combined artifact
// view, ok=false when the sweep is unknown.
func (s *Service) sweepRuns(id string) ([]*run, bool) {
	s.mu.Lock()
	b, ok := s.batches[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return b.runs, true
}

// snapshot assembles the live combined view.
func (b *batch) snapshot() BatchSnapshot {
	snap := BatchSnapshot{ID: b.id, Specs: b.specs}
	for _, r := range b.runs {
		rs := r.snapshot()
		switch rs.Status {
		case StatusDone:
			snap.Done++
		case StatusFailed:
			snap.Failed++
		}
		snap.Runs = append(snap.Runs, rs)
	}
	return snap
}

// sweepID derives a sweep's content address from its member run ids:
// order-insensitive (the same set of specs is the same sweep) and stable
// across processes.
func sweepID(ids []string) string {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	sum := sha256.Sum256([]byte(strings.Join(sorted, "\n")))
	return "b_" + hex.EncodeToString(sum[:])[:16]
}

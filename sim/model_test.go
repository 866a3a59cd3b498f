package sim

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"atlahs/internal/workload/micro"
	"atlahs/results"
)

// minedDoc mines a model from an 8-rank recorded workload and returns the
// model plus its canonical encoding.
func minedDoc(t *testing.T) (*WorkloadModel, []byte) {
	t.Helper()
	m, err := MineModel(micro.BulkSynchronous(8, 3, 4096, 1200), "model-test")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := results.EncodeModelJSON(&buf, m); err != nil {
		t.Fatal(err)
	}
	return m, buf.Bytes()
}

// TestModelWorkloadRuns: the acceptance path — a model mined from an
// 8-rank workload generates valid schedules at 64 and 1024 ranks that run
// on lgs with serial==parallel bit-identical results.
func TestModelWorkloadRuns(t *testing.T) {
	_, doc := minedDoc(t)
	for _, ranks := range []int{64, 1024} {
		serial, err := Run(context.Background(), Spec{
			Workload: Workload{Model: &ModelGen{Ranks: ranks, Seed: 11, Doc: doc}},
		})
		if err != nil {
			t.Fatalf("ranks %d serial: %v", ranks, err)
		}
		if serial.Ops == 0 || serial.Ranks != ranks {
			t.Fatalf("ranks %d: %d ops over %d ranks", ranks, serial.Ops, serial.Ranks)
		}
		parallel, err := Run(context.Background(), Spec{
			Workload: Workload{Model: &ModelGen{Ranks: ranks, Seed: 11, Doc: doc}},
			Workers:  4,
		})
		if err != nil {
			t.Fatalf("ranks %d parallel: %v", ranks, err)
		}
		if serial.Runtime != parallel.Runtime || serial.Ops != parallel.Ops ||
			serial.Events != parallel.Events || !reflect.DeepEqual(serial.RankEnd, parallel.RankEnd) {
			t.Fatalf("ranks %d: serial (%v, %d ops, %d events) != parallel (%v, %d ops, %d events)",
				ranks, serial.Runtime, serial.Ops, serial.Events,
				parallel.Runtime, parallel.Ops, parallel.Events)
		}
	}
}

// TestModelWorkloadSourcesAgree: the same model through Doc, ModelPath,
// and a pre-generated schedule must simulate identically and fingerprint
// identically (the digest covers resolved content, not provenance).
func TestModelWorkloadSourcesAgree(t *testing.T) {
	m, doc := minedDoc(t)
	path := filepath.Join(t.TempDir(), "run.model.json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	sched, err := GenerateFromModel(m, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), Spec{Workload: Workload{Schedule: sched}})
	if err != nil {
		t.Fatal(err)
	}
	wantFP, err := Fingerprint(Spec{Workload: Workload{Schedule: sched}})
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]Spec{
		"doc":  {Workload: Workload{Model: &ModelGen{Ranks: 32, Seed: 7, Doc: doc}}},
		"path": {Workload: Workload{ModelPath: path, Model: &ModelGen{Ranks: 32, Seed: 7}}},
	} {
		got, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Runtime != want.Runtime || got.Ops != want.Ops {
			t.Fatalf("%s: (%v, %d ops), want (%v, %d ops)", name, got.Runtime, got.Ops, want.Runtime, want.Ops)
		}
		fp, err := Fingerprint(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fp != wantFP {
			t.Fatalf("%s: fingerprint %s, want %s", name, fp, wantFP)
		}
	}
}

// TestModelSeedInheritance: a ModelGen with zero Seed inherits Spec.Seed,
// so two different top-level seeds generate different workloads.
func TestModelSeedInheritance(t *testing.T) {
	_, doc := minedDoc(t)
	fp := func(seed uint64) string {
		t.Helper()
		s, err := Fingerprint(Spec{
			Workload: Workload{Model: &ModelGen{Ranks: 16, Doc: doc}},
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if fp(3) == fp(4) {
		t.Fatal("different Spec.Seed values generated identical model workloads")
	}
	// An explicit ModelGen.Seed overrides the inherited one: same
	// workload digest, but Spec.Seed still participates in the canonical
	// head, so the addresses differ while the schedules agree.
	a, err := Run(context.Background(), Spec{
		Workload: Workload{Model: &ModelGen{Ranks: 16, Seed: 9, Doc: doc}},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), Spec{
		Workload: Workload{Model: &ModelGen{Ranks: 16, Seed: 9, Doc: doc}},
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime != b.Runtime || a.Ops != b.Ops {
		t.Fatalf("explicit ModelGen.Seed did not pin the workload: (%v, %d) vs (%v, %d)",
			a.Runtime, a.Ops, b.Runtime, b.Ops)
	}
}

// TestModelWorkloadValidate pins the model-specific validation errors.
func TestModelWorkloadValidate(t *testing.T) {
	_, doc := minedDoc(t)
	for name, c := range map[string]struct {
		spec Spec
		want string
	}{
		"doc-and-path": {Spec{Workload: Workload{Model: &ModelGen{Doc: doc}, ModelPath: "x.json"}}, "not both"},
		"no-doc":       {Spec{Workload: Workload{Model: &ModelGen{Ranks: 8}}}, "needs a Doc"},
		"neg-ranks":    {Spec{Workload: Workload{Model: &ModelGen{Ranks: -1, Doc: doc}}}, "Model.Ranks"},
		"two-sources":  {Spec{Workload: Workload{Model: &ModelGen{Doc: doc}, GoalPath: "x"}}, "exactly one"},
	} {
		t.Run(name, func(t *testing.T) {
			verr := c.spec.Validate()
			if verr == nil || !strings.Contains(verr.Error(), c.want) {
				t.Fatalf("Validate error %v, want it to contain %q", verr, c.want)
			}
			// Error parity with the other entry points.
			if _, rerr := Run(context.Background(), c.spec); rerr == nil || rerr.Error() != verr.Error() {
				t.Fatalf("Run error %q, Validate error %q — entry points disagree", rerr, verr)
			}
		})
	}
}

// TestModelWorkloadBadDoc: a syntactically invalid model document
// surfaces from Run (resolution time), like a malformed trace.
func TestModelWorkloadBadDoc(t *testing.T) {
	_, err := Run(context.Background(), Spec{
		Workload: Workload{Model: &ModelGen{Ranks: 8, Doc: []byte("not a model")}},
	})
	if err == nil || !strings.Contains(err.Error(), "decoding model") {
		t.Fatalf("bad model doc: %v", err)
	}
	_, err = Run(context.Background(), Spec{
		Workload: Workload{ModelPath: filepath.Join(t.TempDir(), "missing.json")},
	})
	if err == nil || !strings.Contains(err.Error(), "reading model") {
		t.Fatalf("missing model file: %v", err)
	}
}

// TestGeneratorRegistry pins the registry surface: the built-in patterns
// are present, model sampling is not a generator, and duplicate or
// malformed registrations panic.
func TestGeneratorRegistry(t *testing.T) {
	all := Generators()
	for _, want := range []string{"alltoall", "bsp", "incast", "permutation", "ring", "uniform"} {
		if !slices.Contains(all, want) {
			t.Fatalf("Generators() = %v, missing %q", all, want)
		}
	}
	if _, ok := LookupGenerator("model"); ok || slices.Contains(all, "model") {
		t.Fatalf("model sampling is registered as a generator: %v", all)
	}
	for name, def := range map[string]GeneratorDef{
		"empty-name": {New: func(GenRequest) (*Schedule, error) { return nil, nil }},
		"nil-new":    {Name: "x"},
		"duplicate":  {Name: "ring", New: func(GenRequest) (*Schedule, error) { return nil, nil }},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("RegisterGenerator did not panic")
				}
			}()
			RegisterGenerator(def)
		})
	}
}

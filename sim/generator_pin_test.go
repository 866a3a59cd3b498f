package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"atlahs/internal/goal"
)

// builtinGenerators is every generator this package registers itself.
var builtinGenerators = []string{"alltoall", "bsp", "incast", "permutation", "ring", "uniform"}

// generatorCases spans each built-in generator over a small grid: rank
// counts 2, 5, 16 and 64 and seeds 1-3 for all of them, crossed with bsp
// phases 1/2/4, uniform message counts 1/24/100 and incast fan-ins
// default/1/n-1. The seed reaches the schedule only through permutation
// and uniform, but every spec carries it into its Fingerprint.
func generatorCases() map[string]Spec {
	cases := map[string]Spec{}
	for _, pattern := range builtinGenerators {
		for _, n := range []int{2, 5, 16, 64} {
			for seed := uint64(1); seed <= 3; seed++ {
				variants := map[string]Synthetic{"": {}}
				switch pattern {
				case "bsp":
					variants = map[string]Synthetic{"/p1": {Phases: 1}, "/p2": {Phases: 2}, "/p4": {Phases: 4}}
				case "uniform":
					variants = map[string]Synthetic{"/m1": {Msgs: 1}, "/m24": {Msgs: 24}, "/m100": {Msgs: 100}}
				case "incast":
					variants = map[string]Synthetic{"/fdefault": {}, "/f1": {Fanin: 1}, "/fn-1": {Fanin: n - 1}}
				}
				for suffix, sy := range variants {
					sy.Pattern, sy.Ranks, sy.Bytes = pattern, n, 4096
					name := fmt.Sprintf("%s/n%d/s%d%s", pattern, n, seed, suffix)
					cases[name] = Spec{Workload: Workload{Synthetic: &sy}, Seed: seed}
				}
			}
		}
	}
	return cases
}

// TestGeneratorsEncodeAsBefore holds every built-in generator to the
// schedules it made when pinnedGenerators was recorded: per case, the
// SHA-256 of the binary GOAL encoding and the spec's Fingerprint. A
// rewrite of a generator, of the builder or of the encoder that moves
// either value changes what a cached run is filed under. Each generator
// counts before it emits, so every array of the schedule is also held to
// its exact size.
func TestGeneratorsEncodeAsBefore(t *testing.T) {
	for _, name := range builtinGenerators {
		if _, ok := LookupGenerator(name); !ok {
			t.Fatalf("built-in generator %q is not registered", name)
		}
	}
	cases := generatorCases()
	if len(cases) != len(pinnedGenerators) {
		t.Errorf("%d cases, %d pinned", len(cases), len(pinnedGenerators))
	}
	for name, sp := range cases {
		resolved, fp, err := ResolveSpec(sp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var bin bytes.Buffer
		if err := goal.WriteBinary(&bin, resolved.resolved.sched); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(bin.Bytes())
		if got := [2]string{hex.EncodeToString(sum[:]), fp}; got != pinnedGenerators[name] {
			t.Errorf("%s: got %q, recorded %q", name, got, pinnedGenerators[name])
		}
		if n := spare(resolved.resolved.sched); n != 0 {
			t.Errorf("%s: %d elements of spare capacity; the generator's counts are off", name, n)
		}
	}
}

// TestOneRankPatterns: ring, permutation and uniform send from every rank
// to another, so one rank is an error from every entry point, not a panic
// (a self-send in the builder, a random peer among none); alltoall, incast
// and bsp have nothing to send and build a valid schedule.
func TestOneRankPatterns(t *testing.T) {
	noPanic := func(pattern, entry string, f func() error) (err error) {
		defer func() {
			if v := recover(); v != nil {
				t.Errorf("%s: %s panicked: %v", pattern, entry, v)
			}
		}()
		return f()
	}
	for _, pattern := range builtinGenerators {
		spec := Spec{Workload: Workload{Synthetic: &Synthetic{Pattern: pattern, Ranks: 1, Bytes: 64}}, Backend: "lgs"}
		entries := map[string]func() error{
			"Fingerprint": func() error { _, err := Fingerprint(spec); return err },
			"ResolveSpec": func() error { _, _, err := ResolveSpec(spec); return err },
			"Run":         func() error { _, err := Run(context.Background(), spec); return err },
		}
		for entry, f := range entries {
			err := noPanic(pattern, entry, f)
			switch pattern {
			case "ring", "permutation", "uniform":
				if want := fmt.Sprintf("sim: pattern %q needs at least 2 ranks, got 1", pattern); err == nil || err.Error() != want {
					t.Errorf("%s: %s: %v, want %q", pattern, entry, err, want)
				}
			default:
				if err != nil {
					t.Errorf("%s: %s: %v", pattern, entry, err)
				}
			}
		}
	}
}

package sim

import (
	"bytes"
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

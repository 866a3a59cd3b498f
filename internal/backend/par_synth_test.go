package backend

import (
	"fmt"
	"testing"

	"atlahs/internal/engine"
	"atlahs/internal/sched"
	"atlahs/internal/workload/micro"
	"atlahs/internal/workload/synth"
)

// TestParallelSynth1024RanksMatchesSerial pins the adaptive-window engine
// at scale: a statistical model mined from a small seeded workload is
// regenerated at 1024 ranks (the PR 8 synthesis path), then simulated
// serially and in parallel at 1, 2, 4 and 8 workers — every run must be
// bit-identical.
func TestParallelSynth1024RanksMatchesSerial(t *testing.T) {
	model, err := synth.Mine(micro.UniformRandom(8, 24, 2048, 5), "par-equivalence seed")
	if err != nil {
		t.Fatal(err)
	}
	s, err := synth.Generate(model, 1024, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NumRanks(); got != 1024 {
		t.Fatalf("generated %d ranks, want 1024", got)
	}
	t.Logf("synth workload: %d ops across %d ranks", s.ComputeStats().Ops, s.NumRanks())

	lgs := NewLGS(AIParams())
	serial, err := sched.Run(engine.New(), s, lgs, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkLGSDrained(t, lgs)
	for _, workers := range []int{1, 2, 4, 8} {
		lgs := NewLGS(AIParams())
		eng := engine.NewParallel(s.NumRanks(), workers, lgs.Lookahead())
		par, err := sched.Run(eng, s, lgs, sched.Options{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkLGSDrained(t, lgs)
		sameResult(t, fmt.Sprintf("workers=%d", workers), par, serial)
		if par.Events != serial.Events {
			t.Fatalf("workers=%d: %d events, serial %d", workers, par.Events, serial.Events)
		}
	}
}

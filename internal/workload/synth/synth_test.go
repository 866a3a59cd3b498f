package synth

import (
	"bytes"
	"testing"

	"atlahs/internal/goal"
	"atlahs/internal/workload/micro"
	"atlahs/results"
)

func TestMineRejectsEmpty(t *testing.T) {
	if _, err := Mine(&goal.Schedule{}, ""); err == nil {
		t.Fatal("Mine accepted a schedule with no ranks")
	}
	empty := &goal.Schedule{Ranks: make([]goal.RankProgram, 4)}
	if _, err := Mine(empty, ""); err == nil {
		t.Fatal("Mine accepted a schedule with no ops")
	}
}

func TestMineStatistics(t *testing.T) {
	s := micro.AllToAll(8, 4096)
	m, err := Mine(s, "alltoall-8")
	if err != nil {
		t.Fatal(err)
	}
	if m.SourceRanks != 8 {
		t.Fatalf("SourceRanks = %d, want 8", m.SourceRanks)
	}
	st := s.ComputeStats()
	if m.SourceOps != st.Ops {
		t.Fatalf("SourceOps = %d, want %d", m.SourceOps, st.Ops)
	}
	if m.Sizes.Count != st.Sends {
		t.Fatalf("Sizes.Count = %d, want %d sends", m.Sizes.Count, st.Sends)
	}
	if m.Sizes.Min != 4096 || m.Sizes.Max != 4096 {
		t.Fatalf("size bounds [%d,%d], want [4096,4096]", m.Sizes.Min, m.Sizes.Max)
	}
	// Each rank sends to 7 peers.
	if m.SendsPerRank.Min != 7 || m.SendsPerRank.Max != 7 {
		t.Fatalf("sends/rank [%d,%d], want [7,7]", m.SendsPerRank.Min, m.SendsPerRank.Max)
	}
	if len(m.Classes) != 1 {
		t.Fatalf("%d traffic classes, want 1", len(m.Classes))
	}
	if m.Comment != "alltoall-8" {
		t.Fatalf("Comment = %q", m.Comment)
	}
}

func TestMineDepthProfile(t *testing.T) {
	// BSP with P phases has per-rank critical path anchor_1..anchor_P plus
	// a trailing send: depth P+1, so Phases should mine back to ~P.
	s := micro.BulkSynchronous(4, 6, 1024, 500)
	m, err := Mine(s, "")
	if err != nil {
		t.Fatal(err)
	}
	if m.DepthMax < 6 {
		t.Fatalf("DepthMax = %d, want >= 6 for a 6-phase BSP", m.DepthMax)
	}
	if m.Phases < 4 || m.Phases > 8 {
		t.Fatalf("Phases = %d, want ~6", m.Phases)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	m, err := Mine(micro.BulkSynchronous(8, 3, 2048, 700), "bsp")
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{8, 64, 1024} {
		a, err := Generate(m, ranks, 42)
		if err != nil {
			t.Fatalf("ranks %d: %v", ranks, err)
		}
		bsched, err := Generate(m, ranks, 42)
		if err != nil {
			t.Fatalf("ranks %d: %v", ranks, err)
		}
		var ab, bb bytes.Buffer
		if err := goal.WriteBinary(&ab, a); err != nil {
			t.Fatal(err)
		}
		if err := goal.WriteBinary(&bb, bsched); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
			t.Fatalf("ranks %d: same (model, ranks, seed) produced different schedules", ranks)
		}
		other, err := Generate(m, ranks, 43)
		if err != nil {
			t.Fatal(err)
		}
		var ob bytes.Buffer
		if err := goal.WriteBinary(&ob, other); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(ab.Bytes(), ob.Bytes()) {
			t.Fatalf("ranks %d: different seeds produced identical schedules", ranks)
		}
	}
}

func TestGenerateValidAndMatched(t *testing.T) {
	for _, src := range []struct {
		name string
		s    *goal.Schedule
	}{
		{"alltoall", micro.AllToAll(8, 65536)},
		{"ring", micro.Ring(8, 1<<20)},
		{"bsp", micro.BulkSynchronous(8, 4, 4096, 1000)},
		{"uniform", micro.UniformRandom(8, 200, 512, 7)},
	} {
		t.Run(src.name, func(t *testing.T) {
			m, err := Mine(src.s, src.name)
			if err != nil {
				t.Fatal(err)
			}
			for _, ranks := range []int{8, 64, 1024} {
				g, err := Generate(m, ranks, 1)
				if err != nil {
					t.Fatalf("ranks %d: %v", ranks, err)
				}
				if g.NumRanks() != ranks {
					t.Fatalf("generated %d ranks, want %d", g.NumRanks(), ranks)
				}
				if err := g.Validate(); err != nil {
					t.Fatalf("ranks %d: %v", ranks, err)
				}
				if err := g.CheckMatched(); err != nil {
					t.Fatalf("ranks %d: %v", ranks, err)
				}
				if g.ComputeStats().Ops == 0 {
					t.Fatalf("ranks %d: generated an empty schedule", ranks)
				}
			}
		})
	}
}

func TestGenerateFidelity(t *testing.T) {
	// Per-rank statistics of the generated schedule should track the
	// model: identical message size (single class), comparable per-rank
	// send counts, comparable per-rank compute.
	src := micro.BulkSynchronous(8, 4, 8192, 1000)
	m, err := Mine(src, "")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Generate(m, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	st := g.ComputeStats()
	if st.Sends == 0 || st.Calcs == 0 {
		t.Fatalf("generated stats %+v, want sends and calcs", st)
	}
	if got := st.SendBytes / st.Sends; got != 8192 {
		t.Fatalf("mean send size %d, want 8192", got)
	}
	srcStats := src.ComputeStats()
	wantSendsPerRank := float64(srcStats.Sends) / float64(srcStats.Ranks)
	gotSendsPerRank := float64(st.Sends) / float64(st.Ranks)
	if gotSendsPerRank < wantSendsPerRank*0.9 || gotSendsPerRank > wantSendsPerRank*1.1 {
		t.Fatalf("sends/rank %.1f, want ~%.1f", gotSendsPerRank, wantSendsPerRank)
	}
	wantCalc := float64(srcStats.CalcNanos) / float64(srcStats.Ranks)
	gotCalc := float64(st.CalcNanos) / float64(st.Ranks)
	if gotCalc < wantCalc*0.9 || gotCalc > wantCalc*1.1 {
		t.Fatalf("calc/rank %.0f ns, want ~%.0f ns", gotCalc, wantCalc)
	}
}

func TestGenerateOffsetsScale(t *testing.T) {
	// A ring (offset +1 at 8 ranks, bin 4 of 32) must stay local when
	// scaled up: at 1024 ranks bin 4 spans offsets [128,159], i.e. the
	// nearest eighth of the machine, not uniform traffic.
	m, err := Mine(micro.Ring(8, 4096), "")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Generate(m, 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	for r := range g.Ranks {
		for i := range g.Ranks[r].Len() {
			op := g.Ranks[r].Op(i)
			if op.Kind() != goal.KindSend {
				continue
			}
			off := (int64(op.Peer()) - int64(r) + 1024) % 1024
			if off < 128 || off > 159 {
				t.Fatalf("rank %d sends at offset %d, want [128,159] (scaled ring bin)", r, off)
			}
		}
	}
}

func TestGeneratePureComm(t *testing.T) {
	// A model with no compute must generate no calc ops (op-mix fidelity).
	m, err := Mine(micro.AllToAll(8, 1024), "")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Generate(m, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st := g.ComputeStats(); st.Calcs != 0 {
		t.Fatalf("pure-comm model generated %d calc ops", st.Calcs)
	}
}

func TestGenerateRejects(t *testing.T) {
	m, err := Mine(micro.Ring(8, 64), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(m, 1, 1); err == nil {
		t.Fatal("Generate accepted 1 rank for a model with sends")
	}
	if _, err := Generate(m, maxGenRanks+1, 1); err == nil {
		t.Fatal("Generate accepted an out-of-range rank count")
	}
	if _, err := Generate(&results.WorkloadModel{}, 8, 1); err == nil {
		t.Fatal("Generate accepted an invalid model")
	}
}

func TestGenerateDefaultRanks(t *testing.T) {
	m, err := Mine(micro.Ring(8, 64), "")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Generate(m, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRanks() != 8 {
		t.Fatalf("default ranks = %d, want the model's 8", g.NumRanks())
	}
}

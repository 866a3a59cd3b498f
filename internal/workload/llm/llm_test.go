package llm

import (
	"strings"
	"testing"

	"atlahs/internal/astra"
	"atlahs/internal/backend"
	"atlahs/internal/engine"
	"atlahs/internal/sched"
	"atlahs/internal/trace/ncclgoal"
	"atlahs/internal/trace/nsys"
)

// paper Fig 8 configurations (scaled byte counts for test speed)
func fig8Configs() []Config {
	return []Config{
		{Model: Llama7B(), Par: Parallelism{TP: 1, PP: 1, DP: 16, EP: 1, GlobalBatch: 32}, Scale: 1e-3, Seed: 1},
		{Model: Llama70B(), Par: Parallelism{TP: 1, PP: 8, DP: 4, EP: 1, GlobalBatch: 32}, Scale: 1e-3, Seed: 2},
		{Model: Mistral8x7B(), Par: Parallelism{TP: 1, PP: 8, DP: 8, EP: 1, GlobalBatch: 32}, Scale: 1e-3, Seed: 3},
		{Model: MoE8x13B(), Par: Parallelism{TP: 4, PP: 4, DP: 8, EP: 4, GlobalBatch: 128}, Scale: 1e-4, Seed: 4},
	}
}

func TestValidate(t *testing.T) {
	good := Config{Model: Llama7B(), Par: Parallelism{TP: 2, PP: 2, DP: 2, EP: 1, GlobalBatch: 8}}
	if err := good.withDefaults().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Model: Llama7B(), Par: Parallelism{TP: 0, PP: 1, DP: 1, EP: 1, GlobalBatch: 4}},
		{Model: Llama7B(), Par: Parallelism{TP: 1, PP: 3, DP: 1, EP: 1, GlobalBatch: 4}},  // 32 % 3 != 0
		{Model: Llama7B(), Par: Parallelism{TP: 1, PP: 1, DP: 4, EP: 3, GlobalBatch: 16}}, // EP !| DP
		{Model: Llama7B(), Par: Parallelism{TP: 1, PP: 1, DP: 4, EP: 2, GlobalBatch: 16}}, // EP>1 on dense
		{Model: Llama7B(), Par: Parallelism{TP: 1, PP: 1, DP: 16, EP: 1, GlobalBatch: 2}}, // batch < DP
	}
	for i, cfg := range bad {
		if err := cfg.withDefaults().Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGenerateNsysValid(t *testing.T) {
	for _, cfg := range fig8Configs() {
		rep, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Model.Name, err)
		}
		if err := rep.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Model.Name, err)
		}
		if rep.NGPUs != cfg.Par.GPUs() {
			t.Fatalf("%s: gpus %d, want %d", cfg.Model.Name, rep.NGPUs, cfg.Par.GPUs())
		}
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	cfg := Config{Model: Llama7B(), Par: Parallelism{TP: 1, PP: 2, DP: 2, EP: 1, GlobalBatch: 8}, Scale: 1e-3, Seed: 5}
	rep, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ncclgoal.Generate(rep, ncclgoal.Config{GPUsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckMatched(); err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(engine.New(), s, backend.NewLGS(backend.AIParams()), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime <= 0 {
		t.Fatal("zero runtime")
	}
}

func TestStructureDenseDP(t *testing.T) {
	cfg := Config{Model: Llama7B(), Par: Parallelism{TP: 1, PP: 1, DP: 4, EP: 1, GlobalBatch: 8}, Scale: 1e-3}
	rep, _ := Generate(cfg)
	// pure DP: only world allreduces, no p2p
	for i := range rep.Records {
		r := &rep.Records[i]
		if r.Kind != nsys.KindNCCL {
			continue
		}
		if r.Coll == nsys.CollSend || r.Coll == nsys.CollRecv {
			t.Fatal("pure DP workload has P2P records")
		}
		if r.Comm != "world" {
			t.Fatalf("pure DP collective on %q, want world", r.Comm)
		}
	}
}

func TestStructurePP(t *testing.T) {
	cfg := Config{Model: Llama7B(), Par: Parallelism{TP: 1, PP: 4, DP: 1, EP: 1, GlobalBatch: 4}, Scale: 1e-3}
	rep, _ := Generate(cfg)
	sends, recvs := 0, 0
	for i := range rep.Records {
		switch rep.Records[i].Coll {
		case nsys.CollSend:
			sends++
			if rep.Records[i].Stream != streamPP {
				t.Fatal("PP send not on the PP stream")
			}
		case nsys.CollRecv:
			recvs++
		}
	}
	if sends == 0 || sends != recvs {
		t.Fatalf("PP p2p wrong: %d sends, %d recvs", sends, recvs)
	}
}

func TestStructureMoE(t *testing.T) {
	cfg := Config{Model: Mistral8x7B(), Par: Parallelism{TP: 1, PP: 1, DP: 8, EP: 4, GlobalBatch: 16}, Scale: 1e-3}
	rep, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	epA2A := 0
	for i := range rep.Records {
		if rep.Records[i].Coll == nsys.CollAllToAll && strings.HasPrefix(rep.Records[i].Comm, "ep.") {
			epA2A++
		}
	}
	if epA2A == 0 {
		t.Fatal("MoE workload emitted no EP all-to-alls")
	}
	// EP communicators have EP members
	for name, members := range rep.Comms {
		if strings.HasPrefix(name, "ep.") && len(members) != 4 {
			t.Fatalf("EP comm %q has %d members, want 4", name, len(members))
		}
	}
}

func TestChakraDPPassesAstra(t *testing.T) {
	cfg := Config{Model: Llama7B(), Par: Parallelism{TP: 1, PP: 1, DP: 4, EP: 1, GlobalBatch: 8}, Scale: 1e-3}
	tr, err := GenerateChakra(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := astra.Simulate(tr); err != nil {
		t.Fatalf("pure-DP chakra trace must run on astra-lite: %v", err)
	}
}

func TestChakraPPFailsAstra(t *testing.T) {
	// the paper's observation: AstraSim only executed the two pure-DP
	// configs; PP/TP/EP configurations fail in the real-trace feeder
	cfg := Config{Model: Llama70B(), Par: Parallelism{TP: 1, PP: 8, DP: 4, EP: 1, GlobalBatch: 32}, Scale: 1e-3}
	tr, err := GenerateChakra(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := astra.Simulate(tr); err == nil {
		t.Fatal("PP chakra trace should fail on astra-lite")
	}
	cfgTP := Config{Model: MoE8x13B(), Par: Parallelism{TP: 4, PP: 4, DP: 8, EP: 4, GlobalBatch: 128}, Scale: 1e-4}
	trTP, err := GenerateChakra(cfgTP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := astra.Simulate(trTP); err == nil {
		t.Fatal("TP/EP chakra trace should fail on astra-lite")
	}
}

func TestDLRM(t *testing.T) {
	cfg := Config{Model: DLRMModel(), Par: Parallelism{TP: 1, PP: 1, DP: 4, EP: 1, GlobalBatch: 8}, Scale: 1e-2}
	rep, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a2a := 0
	for i := range rep.Records {
		if rep.Records[i].Coll == nsys.CollAllToAll {
			a2a++
		}
	}
	if a2a == 0 {
		t.Fatal("DLRM has no embedding all-to-alls")
	}
	s, err := ncclgoal.Generate(rep, ncclgoal.Config{GPUsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(engine.New(), s, backend.NewLGS(backend.AIParams()), sched.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleShrinksBytes(t *testing.T) {
	big := Config{Model: Llama7B(), Par: Parallelism{TP: 1, PP: 1, DP: 4, EP: 1, GlobalBatch: 8}, Scale: 1}
	small := big
	small.Scale = 1e-3
	rb, _ := Generate(big)
	rs, _ := Generate(small)
	sb := Summarize(rb)
	ss := Summarize(rs)
	if ss.CollBytes >= sb.CollBytes {
		t.Fatalf("scale did not shrink collective bytes: %d vs %d", ss.CollBytes, sb.CollBytes)
	}
}

func TestSummarize(t *testing.T) {
	cfg := Config{Model: Llama7B(), Par: Parallelism{TP: 1, PP: 2, DP: 2, EP: 1, GlobalBatch: 8}, Scale: 1e-3}
	rep, _ := Generate(cfg)
	s := Summarize(rep)
	if s.GPUs != 4 || s.Records == 0 || s.ComputeNs == 0 || s.CollBytes == 0 || s.P2PBytes == 0 {
		t.Fatalf("summary incomplete: %+v", s)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Model: Llama7B(), Par: Parallelism{TP: 1, PP: 2, DP: 2, EP: 1, GlobalBatch: 8}, Scale: 1e-3, Seed: 9}
	a, _ := Generate(cfg)
	b, _ := Generate(cfg)
	if len(a.Records) != len(b.Records) {
		t.Fatal("not deterministic")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatal("records differ for same seed")
		}
	}
}

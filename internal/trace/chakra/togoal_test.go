package chakra

import (
	"strings"
	"testing"

	"atlahs/internal/backend"
	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/sched"
)

// fixture builds an n-rank trace: compute, a world allreduce, and a
// 0->1 P2P pair.
func fixture(n int) *Trace {
	t := &Trace{Ranks: make([][]Node, n)}
	for r := 0; r < n; r++ {
		var b Builder
		b.AddComp("fwd", int64(1000*(r+1)))
		b.AddColl(CollAllReduce, 1<<16, "world")
		if r == 0 {
			b.AddSend(4096, 1, 9)
		}
		if r == 1 {
			b.AddRecv(4096, 0, 9)
		}
		b.AddComp("opt", 500)
		t.Ranks[r] = b.Nodes()
	}
	return t
}

func TestToGOALRuns(t *testing.T) {
	tr := fixture(4)
	s, err := ToGOAL(tr, ConvertConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRanks() != 4 {
		t.Fatalf("ranks %d, want 4", s.NumRanks())
	}
	if err := s.CheckMatched(); err != nil {
		t.Fatal(err)
	}
	st := s.ComputeStats()
	if st.Sends == 0 || st.Recvs == 0 {
		t.Fatalf("collective not decomposed into P2P: %+v", st)
	}
	// compute carried over: 2 comps per rank plus the traced durations
	if st.CalcNanos < 4*(1000+500) {
		t.Fatalf("compute lost: %+v", st)
	}
	// The converted schedule must actually simulate to completion.
	res, err := sched.Run(engine.New(), s, backend.NewLGS(backend.AIParams()), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime <= 0 {
		t.Fatalf("runtime %v", res.Runtime)
	}
}

func TestToGOALDeterministic(t *testing.T) {
	a, err := ToGOAL(fixture(4), ConvertConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ToGOAL(fixture(4), ConvertConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if a.ComputeStats() != b.ComputeStats() {
		t.Fatal("conversion not deterministic")
	}
}

func TestToGOALSubgroups(t *testing.T) {
	// Two 2-rank subgroups, unknown without a Groups table.
	tr := &Trace{Ranks: make([][]Node, 4)}
	for r := 0; r < 4; r++ {
		var b Builder
		group := "dp0"
		if r >= 2 {
			group = "dp1"
		}
		b.AddComp("fwd", 1000)
		b.AddColl(CollAllGather, 4096, group)
		tr.Ranks[r] = b.Nodes()
	}
	if _, err := ToGOAL(tr, ConvertConfig{}); err == nil || !strings.Contains(err.Error(), "unknown group") {
		t.Fatalf("unknown subgroup should error, got %v", err)
	}
	s, err := ToGOAL(tr, ConvertConfig{Groups: map[string][]int{"dp0": {0, 1}, "dp1": {2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckMatched(); err != nil {
		t.Fatal(err)
	}
	if st := s.ComputeStats(); st.Sends == 0 {
		t.Fatalf("subgroup collectives not decomposed: %+v", st)
	}
}

func TestToGOALErrors(t *testing.T) {
	// Mismatched collective order across ranks.
	tr := &Trace{Ranks: make([][]Node, 2)}
	var b0, b1 Builder
	b0.AddColl(CollAllReduce, 1024, "world")
	b1.AddColl(CollAllGather, 1024, "world")
	tr.Ranks[0], tr.Ranks[1] = b0.Nodes(), b1.Nodes()
	if _, err := ToGOAL(tr, ConvertConfig{}); err == nil {
		t.Fatal("collective mismatch should error")
	}

	// A rank missing a collective.
	tr2 := &Trace{Ranks: make([][]Node, 2)}
	var c0, c1 Builder
	c0.AddColl(CollAllReduce, 1024, "world")
	c1.AddComp("only-compute", 10)
	tr2.Ranks[0], tr2.Ranks[1] = c0.Nodes(), c1.Nodes()
	if _, err := ToGOAL(tr2, ConvertConfig{}); err == nil || !strings.Contains(err.Error(), "missing collective") {
		t.Fatalf("missing collective should error, got %v", err)
	}

	// Members disagreeing on the collective's payload size.
	tr4 := &Trace{Ranks: make([][]Node, 2)}
	var d0, d1 Builder
	d0.AddColl(CollAllReduce, 1<<20, "world")
	d1.AddColl(CollAllReduce, 4096, "world")
	tr4.Ranks[0], tr4.Ranks[1] = d0.Nodes(), d1.Nodes()
	if _, err := ToGOAL(tr4, ConvertConfig{}); err == nil || !strings.Contains(err.Error(), "bytes") {
		t.Fatalf("comm_size mismatch should error, got %v", err)
	}

	// Unsupported collective type.
	tr3 := &Trace{Ranks: [][]Node{{{
		ID: 0, Name: "x", Type: NodeCollComm,
		Attrs: []Attr{StrAttr("comm_type", "GATHERV"), IntAttr("comm_size", 10)},
	}}}}
	if _, err := ToGOAL(tr3, ConvertConfig{}); err == nil || !strings.Contains(err.Error(), "unsupported collective") {
		t.Fatalf("unsupported collective should error, got %v", err)
	}

	if _, err := ToGOAL(&Trace{}, ConvertConfig{}); err == nil {
		t.Fatal("empty trace should error")
	}
}

// TestToGOALP2POnly: traces with only matched P2P pairs convert without a
// collective pass.
func TestToGOALP2POnly(t *testing.T) {
	tr := &Trace{Ranks: make([][]Node, 2)}
	var b0, b1 Builder
	b0.AddComp("pre", 100)
	b0.AddSend(2048, 1, 3)
	b1.AddRecv(2048, 0, 3)
	b1.AddComp("post", 100)
	tr.Ranks[0], tr.Ranks[1] = b0.Nodes(), b1.Nodes()
	s, err := ToGOAL(tr, ConvertConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckMatched(); err != nil {
		t.Fatal(err)
	}
	var found bool
	for i := range s.Ranks[0].Len() {
		op := s.Ranks[0].Op(i)
		if op.Kind() == goal.KindSend && op.Size() == 2048 && op.Peer() == 1 && op.Tag() == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("P2P send not carried over")
	}
}

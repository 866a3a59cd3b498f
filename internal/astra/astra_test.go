package astra

import (
	"strings"
	"testing"

	"atlahs/internal/simtime"
	"atlahs/internal/trace/chakra"
)

// dpTrace builds a pure data-parallel trace: per-iteration compute plus a
// world allreduce, the shape AstraSim's real-trace path supports.
func dpTrace(ranks int, iters int, compNs, gradBytes int64) *chakra.Trace {
	t := &chakra.Trace{Ranks: make([][]chakra.Node, ranks)}
	for r := 0; r < ranks; r++ {
		var b chakra.Builder
		for i := 0; i < iters; i++ {
			b.AddComp("fwd_bwd", compNs)
			b.AddColl(chakra.CollAllReduce, gradBytes, "world")
		}
		t.Ranks[r] = b.Nodes()
	}
	return t
}

func TestSimulateDP(t *testing.T) {
	tr := dpTrace(4, 2, 1_000_000, 1<<20)
	res, err := Simulate(tr)
	if err != nil {
		t.Fatal(err)
	}
	// at least 2 iterations of 1 ms compute
	if res.Runtime < 2*simtime.Millisecond {
		t.Fatalf("runtime %v below compute floor", res.Runtime)
	}
	if res.Phases == 0 {
		t.Fatal("no collective phases simulated")
	}
	for _, e := range res.RankEnd {
		if e == 0 {
			t.Fatal("rank never finished")
		}
	}
}

func TestCollectiveCostScalesWithBytes(t *testing.T) {
	small, err := Simulate(dpTrace(4, 1, 0, 1<<16))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Simulate(dpTrace(4, 1, 0, 1<<24))
	if err != nil {
		t.Fatal(err)
	}
	if big.Runtime <= small.Runtime {
		t.Fatalf("larger collective not slower: %v vs %v", big.Runtime, small.Runtime)
	}
}

func TestRejectsP2P(t *testing.T) {
	tr := &chakra.Trace{Ranks: make([][]chakra.Node, 2)}
	var b0 chakra.Builder
	b0.AddSend(4096, 1, 0)
	tr.Ranks[0] = b0.Nodes()
	var b1 chakra.Builder
	b1.AddRecv(4096, 0, 0)
	tr.Ranks[1] = b1.Nodes()
	_, err := Simulate(tr)
	if err == nil || !strings.Contains(err.Error(), "point-to-point") {
		t.Fatalf("P2P not rejected: %v", err)
	}
}

func TestRejectsSubgroupCollectives(t *testing.T) {
	tr := &chakra.Trace{Ranks: make([][]chakra.Node, 2)}
	for r := 0; r < 2; r++ {
		var b chakra.Builder
		b.AddColl(chakra.CollAllReduce, 1024, "tp0")
		tr.Ranks[r] = b.Nodes()
	}
	_, err := Simulate(tr)
	if err == nil || !strings.Contains(err.Error(), "subgroup") {
		t.Fatalf("subgroup not rejected: %v", err)
	}
}

func TestCollectiveCountMismatch(t *testing.T) {
	tr := &chakra.Trace{Ranks: make([][]chakra.Node, 2)}
	var b0 chakra.Builder
	b0.AddColl(chakra.CollAllReduce, 1024, "world")
	tr.Ranks[0] = b0.Nodes()
	var b1 chakra.Builder
	b1.AddComp("only_compute", 10)
	tr.Ranks[1] = b1.Nodes()
	if _, err := Simulate(tr); err == nil {
		t.Fatal("mismatched collective counts accepted")
	}
}

func TestStragglerGatesCollective(t *testing.T) {
	// one slow rank delays everyone (collectives synchronise)
	tr := dpTrace(4, 1, 0, 1<<20)
	var b chakra.Builder
	b.AddComp("straggler", 50_000_000) // 50 ms
	b.AddColl(chakra.CollAllReduce, 1<<20, "world")
	tr.Ranks[3] = b.Nodes()
	res, err := Simulate(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime < 50*simtime.Millisecond {
		t.Fatalf("straggler not gating: %v", res.Runtime)
	}
	// all ranks end together (after the collective)
	for _, e := range res.RankEnd {
		if e < simtime.Time(50*simtime.Millisecond) {
			t.Fatalf("rank finished before straggler released collective: %v", e)
		}
	}
}

func TestAllCollectiveTypes(t *testing.T) {
	for _, ct := range []string{
		chakra.CollAllReduce, chakra.CollAllGather, chakra.CollReduceScatter,
		chakra.CollAllToAll, chakra.CollBroadcast,
	} {
		tr := &chakra.Trace{Ranks: make([][]chakra.Node, 3)}
		for r := 0; r < 3; r++ {
			var b chakra.Builder
			b.AddColl(ct, 1<<18, "world")
			tr.Ranks[r] = b.Nodes()
		}
		if _, err := Simulate(tr); err != nil {
			t.Fatalf("%s: %v", ct, err)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	if _, err := Simulate(&chakra.Trace{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

package goal

import (
	"reflect"
	"testing"
)

// twoRankExchange builds a 2-rank schedule: rank 0 computes and sends,
// rank 1 receives and computes, with a dependency on each rank.
func twoRankExchange(bytes int64, tag int32) *Schedule {
	b := NewBuilder(2)
	r0 := b.Rank(0)
	c := r0.Calc(100)
	s := r0.Send(bytes, 1, tag)
	r0.Requires(s, c)
	r1 := b.Rank(1)
	rv := r1.Recv(bytes, 0, tag)
	w := r1.Calc(200)
	r1.Requires(w, rv)
	return b.MustBuild()
}

func TestComposePacked(t *testing.T) {
	a := twoRankExchange(64, 1)
	c := twoRankExchange(128, 2)
	merged, nodes, err := Compose(PlacePacked, a, c)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{0, 1}, {2, 3}}; !reflect.DeepEqual(nodes, want) {
		t.Fatalf("packed nodes %v, want %v", nodes, want)
	}
	if merged.NumRanks() != 4 {
		t.Fatalf("merged ranks %d, want 4", merged.NumRanks())
	}
	// Job 1's send landed on node 2 and points at node 3.
	if op := merged.Ranks[2].Ops[1]; op.Kind != KindSend || op.Peer != 3 || op.Size != 128 {
		t.Fatalf("job 1 send misplaced: %+v", op)
	}
	if err := merged.CheckMatched(); err != nil {
		t.Fatal(err)
	}
	// Size accounting is the sum of the parts.
	st, sa, sc := merged.ComputeStats(), a.ComputeStats(), c.ComputeStats()
	if st.Ops != sa.Ops+sc.Ops || st.SendBytes != sa.SendBytes+sc.SendBytes || st.DepEdges != sa.DepEdges+sc.DepEdges {
		t.Fatalf("stats not additive: %+v vs %+v + %+v", st, sa, sc)
	}
}

func TestComposeInterleaved(t *testing.T) {
	a := twoRankExchange(64, 1)
	c := twoRankExchange(128, 2)
	third := twoRankExchange(256, 3)
	merged, nodes, err := Compose(PlaceInterleaved, a, c, third)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{0, 3}, {1, 4}, {2, 5}}; !reflect.DeepEqual(nodes, want) {
		t.Fatalf("interleaved nodes %v, want %v", nodes, want)
	}
	// Job 0's send runs on node 0 and targets its own rank 1 = node 3.
	if op := merged.Ranks[0].Ops[1]; op.Kind != KindSend || op.Peer != 3 {
		t.Fatalf("job 0 send peer %d, want 3", op.Peer)
	}
	if err := merged.CheckMatched(); err != nil {
		t.Fatal(err)
	}
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestComposeInterleavedUnevenJobs: once a small job is fully placed, the
// remaining nodes keep going to the larger jobs.
func TestComposeInterleavedUnevenJobs(t *testing.T) {
	big := micro4()
	small := twoRankExchange(64, 1)
	_, nodes, err := Compose(PlaceInterleaved, big, small)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{0, 2, 4, 5}, {1, 3}}; !reflect.DeepEqual(nodes, want) {
		t.Fatalf("uneven interleave %v, want %v", nodes, want)
	}
}

// micro4 is a 4-rank all-calc schedule.
func micro4() *Schedule {
	b := NewBuilder(4)
	for r := 0; r < 4; r++ {
		b.Rank(r).Calc(int64(10 * (r + 1)))
	}
	return b.MustBuild()
}

// TestComposeDoesNotAliasInputs: mutating the merged schedule must not
// write through to the source schedules.
func TestComposeDoesNotAliasInputs(t *testing.T) {
	a := twoRankExchange(64, 1)
	merged, _, err := Compose(PlacePacked, a, twoRankExchange(64, 1))
	if err != nil {
		t.Fatal(err)
	}
	merged.Ranks[0].Ops[0].Size = 999999
	merged.Ranks[0].Requires.Of(1)[0] = 1
	if a.Ranks[0].Ops[0].Size == 999999 {
		t.Fatal("merged ops alias the input schedule")
	}
	if a.Ranks[0].Requires.Of(1)[0] != 0 {
		t.Fatal("merged dependency table aliases the input schedule")
	}
}

func TestComposeErrors(t *testing.T) {
	if _, _, err := Compose(PlacePacked); err == nil {
		t.Fatal("no jobs should error")
	}
	// A never-validated job with an out-of-range peer must come back as
	// an error, not a panic in the peer rewrite.
	b := NewBuilder(2)
	b.Rank(0).Send(1, 5, 0)
	b.Rank(1).Calc(0)
	bad := b.Build()
	if _, _, err := Compose(PlacePacked, bad); err == nil {
		t.Fatal("invalid peer should error before merging")
	}
	if _, _, err := Compose(PlacePacked, nil); err == nil {
		t.Fatal("nil job should error")
	}
	if _, _, err := Compose(PlacePacked, &Schedule{}); err == nil {
		t.Fatal("empty job should error")
	}
	if _, _, err := Compose(Placement(99), twoRankExchange(1, 1)); err == nil {
		t.Fatal("unknown placement should error")
	}
}

func TestPlacementString(t *testing.T) {
	if PlacePacked.String() != "packed" || PlaceInterleaved.String() != "interleaved" {
		t.Fatalf("placement names: %v %v", PlacePacked, PlaceInterleaved)
	}
}

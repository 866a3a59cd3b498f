package goal

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"atlahs/internal/xrand"
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

// mustNodes returns the policy's node sets for jobs of the given sizes.
func mustNodes(t *testing.T, p Placement, sizes ...int) [][]int {
	t.Helper()
	nodes, err := p.Nodes(sizes)
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

func TestComposePacked(t *testing.T) {
	a := twoRankExchange(64, 1)
	c := twoRankExchange(128, 2)
	nodes := mustNodes(t, PlacePacked, 2, 2)
	if want := [][]int{{0, 1}, {2, 3}}; !reflect.DeepEqual(nodes, want) {
		t.Fatalf("packed nodes %v, want %v", nodes, want)
	}
	merged, err := Compose(nodes, a, c)
	if err != nil {
		t.Fatal(err)
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
	nodes := mustNodes(t, PlaceInterleaved, 2, 2, 2)
	if want := [][]int{{0, 3}, {1, 4}, {2, 5}}; !reflect.DeepEqual(nodes, want) {
		t.Fatalf("interleaved nodes %v, want %v", nodes, want)
	}
	merged, err := Compose(nodes, a, c, third)
	if err != nil {
		t.Fatal(err)
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
	nodes := mustNodes(t, PlaceInterleaved, 4, 2)
	if want := [][]int{{0, 2, 4, 5}, {1, 3}}; !reflect.DeepEqual(nodes, want) {
		t.Fatalf("uneven interleave %v, want %v", nodes, want)
	}
	if _, err := Compose(nodes, micro4(), twoRankExchange(64, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestPlacementNodes pins the node sets each policy hands Compose, among
// them the layouts sim.TestComposePlacements reads back from a run.
func TestPlacementNodes(t *testing.T) {
	cases := []struct {
		policy Placement
		sizes  []int
		want   [][]int
	}{
		{PlacePacked, []int{4, 2}, [][]int{{0, 1, 2, 3}, {4, 5}}},
		{PlaceInterleaved, []int{4, 2}, [][]int{{0, 2, 4, 5}, {1, 3}}},
		{PlacePacked, []int{3}, [][]int{{0, 1, 2}}},
		{PlaceInterleaved, []int{1, 3, 1}, [][]int{{0}, {1, 3, 4}, {2}}},
	}
	for _, c := range cases {
		if got := mustNodes(t, c.policy, c.sizes...); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v %v: nodes %v, want %v", c.policy, c.sizes, got, c.want)
		}
	}
	if _, err := Placement(99).Nodes([]int{2}); err == nil {
		t.Fatal("unknown placement should error")
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
	merged, err := Compose([][]int{{0, 1}, {2, 3}}, a, twoRankExchange(64, 1))
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
	if _, err := Compose(nil); err == nil {
		t.Fatal("no jobs should error")
	}
	// A never-validated job with an out-of-range peer must come back as
	// an error, not a panic in the peer rewrite.
	b := NewBuilder(2)
	b.Rank(0).Send(1, 5, 0)
	b.Rank(1).Calc(0)
	bad := b.Build()
	if _, err := Compose([][]int{{0, 1}}, bad); err == nil {
		t.Fatal("invalid peer should error before merging")
	}
	if _, err := Compose([][]int{nil}, nil); err == nil {
		t.Fatal("nil job should error")
	}
	if _, err := Compose([][]int{nil}, &Schedule{}); err == nil {
		t.Fatal("empty job should error")
	}
}

// TestComposeRejectsNonPartition: the node sets must give every rank of
// every job its own node of [0, Σ ranks); anything else is refused before
// a single op is placed.
func TestComposeRejectsNonPartition(t *testing.T) {
	two, four := twoRankExchange(64, 1), micro4()
	cases := []struct {
		name  string
		nodes [][]int
		jobs  []*Schedule
		want  string
	}{
		{"one set for two jobs", [][]int{{0, 1}}, []*Schedule{two, two}, "1 node sets for 2 jobs"},
		{"short", [][]int{{0}}, []*Schedule{two}, "job 0 has 2 ranks but 1 nodes"},
		{"long", [][]int{{0, 1}, {2, 3, 4}}, []*Schedule{two, two}, "job 1 has 2 ranks but 3 nodes"},
		{"out of range", [][]int{{0, 1, 2, 6}, {4, 5}}, []*Schedule{four, two}, "rank 3 on node 6, outside [0, 6)"},
		{"negative", [][]int{{-1, 1}}, []*Schedule{two}, "rank 0 on node -1"},
		{"duplicate within a job", [][]int{{0, 0, 1, 2}, {3, 4}}, []*Schedule{four, two}, "job 0 puts two ranks on node 0"},
		{"shared across jobs", [][]int{{0, 1, 2, 3}, {3, 4}}, []*Schedule{four, two}, "jobs 0 and 1 share node 3"},
		// Node 1 left empty: with one node per rank, a gap pushes some
		// rank past the end of the fabric.
		{"node left empty", [][]int{{0, 2}}, []*Schedule{two}, "rank 1 on node 2, outside [0, 2)"},
	}
	for _, c := range cases {
		_, err := Compose(c.nodes, c.jobs...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Compose = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestComposeProperty: jobs composed onto any partition of the fabric keep
// every op, every dependency edge and their send/recv matching.
func TestComposeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		njobs := rng.Intn(3) + 1
		jobs := make([]*Schedule, njobs)
		total, wantOps, wantEdges := 0, int64(0), int64(0)
		for j := range jobs {
			n := rng.Intn(6) + 2
			b := NewBuilder(n)
			for r := 0; r < n; r++ {
				rb := b.Rank(r)
				s := rb.Send(rng.Int63n(4096)+1, (r+1)%n, int32(j))
				rb.Requires(rb.Recv(1, (r+n-1)%n, int32(j)), s)
			}
			jobs[j] = b.MustBuild()
			st := jobs[j].ComputeStats()
			total, wantOps, wantEdges = total+n, wantOps+st.Ops, wantEdges+st.DepEdges
		}
		perm := rng.Perm(total)
		nodes := make([][]int, njobs)
		for j, job := range jobs {
			nodes[j], perm = perm[:job.NumRanks()], perm[job.NumRanks():]
		}
		merged, err := Compose(nodes, jobs...)
		if err != nil || merged.CheckMatched() != nil {
			return false
		}
		st := merged.ComputeStats()
		return merged.NumRanks() == total && st.Ops == wantOps && st.DepEdges == wantEdges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementString(t *testing.T) {
	if PlacePacked.String() != "packed" || PlaceInterleaved.String() != "interleaved" {
		t.Fatalf("placement names: %v %v", PlacePacked, PlaceInterleaved)
	}
}

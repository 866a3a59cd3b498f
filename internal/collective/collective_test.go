package collective

import (
	"testing"
	"testing/quick"

	"atlahs/internal/backend"
	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/sched"
	"atlahs/internal/simtime"
	"atlahs/internal/xrand"
)

func group(n int) []int {
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}

// buildAndRun decomposes one collective over n ranks, verifies the GOAL
// invariants, and simulates it on the LGS backend.
func buildAndRun(t *testing.T, kind Kind, algo Algo, n int, bytes int64, opt Options) *sched.Result {
	t.Helper()
	b := goal.NewBuilder(n)
	_, err := decomposeAll(b, kind, algo, group(n), 0, bytes, opt, nil)
	if err != nil {
		t.Fatalf("%v/%v: %v", kind, algo, err)
	}
	s := b.MustBuild()
	if err := s.CheckMatched(); err != nil {
		t.Fatalf("%v/%v: %v", kind, algo, err)
	}
	res, err := sched.Run(engine.New(), s, backend.NewLGS(backend.AIParams()), sched.Options{})
	if err != nil {
		t.Fatalf("%v/%v: %v", kind, algo, err)
	}
	return res
}

func TestAllKindsAllAlgos(t *testing.T) {
	cases := []struct {
		kind Kind
		algo Algo
	}{
		{Allreduce, Ring}, {Allreduce, RecDoubling},
		{Bcast, Ring}, {Bcast, Binomial},
		{Allgather, Ring}, {ReduceScatter, Ring},
		{Alltoall, Pairwise}, {Barrier, Auto},
		{Reduce, Binomial}, {Gather, Auto}, {Scatter, Auto},
	}
	for _, c := range cases {
		for _, n := range []int{2, 3, 4, 5, 8} {
			buildAndRun(t, c.kind, c.algo, n, 64*1024, Options{})
		}
	}
}

func TestSingleRankCollectiveIsNoop(t *testing.T) {
	b := goal.NewBuilder(1)
	exits, err := decomposeAll(b, Allreduce, Ring, []int{0}, 0, 1024, Options{}, nil)
	if err != nil || len(exits) != 1 {
		t.Fatalf("exits=%v err=%v", exits, err)
	}
	s := b.MustBuild()
	if st := s.ComputeStats(); st.Sends != 0 || st.Recvs != 0 {
		t.Fatalf("single-rank collective communicated: %+v", st)
	}
}

func TestDecomposeErrors(t *testing.T) {
	b := goal.NewBuilder(4)
	if _, err := Decompose(b.Rank(0), Allreduce, Ring, nil, 0, 0, 10, Options{}, -1); err == nil {
		t.Fatal("empty group accepted")
	}
	if _, err := decomposeAll(b, Allreduce, Ring, []int{0, 1}, 0, -5, Options{}, nil); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := decomposeAll(b, Allreduce, Binomial, []int{0, 1}, 0, 10, Options{}, nil); err == nil {
		t.Fatal("unsupported kind/algo pair accepted")
	}
	if _, err := decomposeAll(b, Allreduce, Ring, []int{0, 1}, 0, 10, Options{Channels: TagSpan + 1}, nil); err == nil {
		t.Fatal("more channels than tags accepted")
	}
	for _, pos := range []int{-1, 2} {
		if _, err := Decompose(b.Rank(0), Allreduce, Ring, []int{0, 1}, pos, 0, 10, Options{}, -1); err == nil {
			t.Fatalf("position %d of a 2-member group accepted", pos)
		}
	}
	if b.Rank(0).Calc(1) != 0 { // the first op rank 0 is given
		t.Fatal("a rejected collective emitted ops")
	}
}

func TestRingAllreduceByteVolume(t *testing.T) {
	// bandwidth-optimal ring: each rank sends 2*(N-1)/N of the payload
	const n, size = 8, 1 << 20
	b := goal.NewBuilder(n)
	if _, err := decomposeAll(b, Allreduce, Ring, group(n), 0, size, Options{}, nil); err != nil {
		t.Fatal(err)
	}
	s := b.MustBuild()
	st := s.ComputeStats()
	wantPerRank := int64(2 * (n - 1) * size / n)
	got := st.SendBytes / int64(n)
	if got != wantPerRank {
		t.Fatalf("per-rank send bytes %d, want %d", got, wantPerRank)
	}
	// 2(N-1) sends and recvs per rank
	if st.Sends != int64(2*(n-1)*n) {
		t.Fatalf("sends=%d, want %d", st.Sends, 2*(n-1)*n)
	}
}

func TestRingBcastFig4(t *testing.T) {
	// Paper Fig 4: 2 MB broadcast over a 4-rank ring, 512 KB buffer =>
	// the root performs 4 sequential 512 KB sends.
	const n = 4
	const size = 2 << 20
	b := goal.NewBuilder(n)
	if _, err := decomposeAll(b, Bcast, Ring, group(n), 0, size, Options{ChunkBytes: 512 * 1024}, nil); err != nil {
		t.Fatal(err)
	}
	s := b.MustBuild()
	root := &s.Ranks[0]
	var sends int
	for i := range root.Len() {
		if root.Op(i).Kind() == goal.KindSend {
			sends++
			if root.Op(i).Size() != 512*1024 {
				t.Fatalf("root chunk %d bytes, want 512 KiB", root.Op(i).Size())
			}
		}
	}
	if sends != 4 {
		t.Fatalf("root sends %d chunks, want 4", sends)
	}
	// last ring position only receives
	tail := &s.Ranks[n-1]
	for i := range tail.Len() {
		if tail.Op(i).Kind() == goal.KindSend {
			t.Fatal("last ring rank must not forward")
		}
	}
	if err := s.CheckMatched(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineBeatsStoreAndForward(t *testing.T) {
	// chunked ring bcast must be faster than one giant hop-by-hop message
	big := buildAndRun(t, Bcast, Ring, 8, 4<<20, Options{ChunkBytes: 4 << 20})
	chunked := buildAndRun(t, Bcast, Ring, 8, 4<<20, Options{ChunkBytes: 256 * 1024})
	if chunked.Runtime >= big.Runtime {
		t.Fatalf("pipelining no faster: %v vs %v", chunked.Runtime, big.Runtime)
	}
}

func TestLLProtocolDoublesWire(t *testing.T) {
	if WireBytes(Simple, 1000) != 1000 || WireBytes(LL, 1000) != 2000 {
		t.Fatal("WireBytes wrong")
	}
	b1 := goal.NewBuilder(4)
	decomposeAll(b1, Allreduce, Ring, group(4), 0, 1<<20, Options{Protocol: Simple}, nil)
	b2 := goal.NewBuilder(4)
	decomposeAll(b2, Allreduce, Ring, group(4), 0, 1<<20, Options{Protocol: LL}, nil)
	s1 := b1.MustBuild().ComputeStats().SendBytes
	s2 := b2.MustBuild().ComputeStats().SendBytes
	if s2 != 2*s1 {
		t.Fatalf("LL wire bytes %d, want 2x Simple %d", s2, s1)
	}
}

func TestChannelsSplitPayload(t *testing.T) {
	b1 := goal.NewBuilder(4)
	decomposeAll(b1, Allreduce, Ring, group(4), 0, 1<<20, Options{Channels: 1}, nil)
	b4 := goal.NewBuilder(4)
	decomposeAll(b4, Allreduce, Ring, group(4), 0, 1<<20, Options{Channels: 4}, nil)
	st1 := b1.MustBuild().ComputeStats()
	st4 := b4.MustBuild().ComputeStats()
	if st1.SendBytes != st4.SendBytes {
		t.Fatalf("channels changed total bytes: %d vs %d", st1.SendBytes, st4.SendBytes)
	}
	if st4.Sends != 4*st1.Sends {
		t.Fatalf("4 channels should quadruple message count: %d vs %d", st4.Sends, st1.Sends)
	}
	// more channels => more parallel injection => never slower on LGS
	r1 := buildAndRun(t, Allreduce, Ring, 4, 1<<20, Options{Channels: 1})
	r4 := buildAndRun(t, Allreduce, Ring, 4, 1<<20, Options{Channels: 4})
	if r4.Runtime > r1.Runtime*11/10 {
		t.Fatalf("4 channels much slower: %v vs %v", r4.Runtime, r1.Runtime)
	}
}

func TestRecDoublingNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 12} {
		buildAndRun(t, Allreduce, RecDoubling, n, 32*1024, Options{})
	}
}

func TestBarrierLatencyFloor(t *testing.T) {
	// dissemination barrier over 8 ranks: 3 rounds, each at least L
	res := buildAndRun(t, Barrier, Auto, 8, 0, Options{})
	minT := 3 * 3700 * simtime.Nanosecond
	if res.Runtime < minT {
		t.Fatalf("barrier %v faster than 3 rounds of L (%v)", res.Runtime, minT)
	}
}

func TestReduceCalcInsertion(t *testing.T) {
	b := goal.NewBuilder(4)
	decomposeAll(b, Allreduce, Ring, group(4), 0, 1<<20, Options{ReduceNsPerByte: 0.01}, nil)
	s := b.MustBuild()
	st := s.ComputeStats()
	if st.Calcs == 0 {
		t.Fatal("no reduction calcs inserted")
	}
	if st.CalcNanos == 0 {
		t.Fatal("reduction calcs have zero cost")
	}
}

func TestEntryDependenciesRespected(t *testing.T) {
	// every rank computes 1ms before the allreduce; runtime must exceed 1ms
	b := goal.NewBuilder(4)
	entry := make([]goal.OpID, 4)
	for i := 0; i < 4; i++ {
		entry[i] = b.Rank(i).Calc(1_000_000) // 1 ms
	}
	if _, err := decomposeAll(b, Allreduce, Ring, group(4), 0, 1024, Options{}, entry); err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(engine.New(), b.MustBuild(), backend.NewLGS(backend.AIParams()), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime < simtime.Millisecond {
		t.Fatalf("entry dependency ignored: %v", res.Runtime)
	}
}

func TestCollectiveChaining(t *testing.T) {
	// reduce-scatter followed by allgather == allreduce volume
	b := goal.NewBuilder(4)
	exits, err := decomposeAll(b, ReduceScatter, Ring, group(4), 0, 1<<20, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decomposeAll(b, Allgather, Ring, group(4), 0, (1<<20)/4, Options{TagBase: TagSpan}, exits); err != nil {
		t.Fatal(err)
	}
	s := b.MustBuild()
	if err := s.CheckMatched(); err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(engine.New(), s, backend.NewLGS(backend.AIParams()), sched.Options{}); err != nil {
		t.Fatal(err)
	}
}

// Property: any kind/size/rank-count combination produces a valid, matched,
// runnable schedule.
func TestDecomposeProperty(t *testing.T) {
	kinds := []struct {
		kind Kind
		algo Algo
	}{
		{Allreduce, Ring}, {Allreduce, RecDoubling}, {Bcast, Ring},
		{Bcast, Binomial}, {Allgather, Ring}, {ReduceScatter, Ring},
		{Alltoall, Pairwise}, {Barrier, Auto}, {Reduce, Binomial},
		{Gather, Auto}, {Scatter, Auto},
	}
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		c := kinds[rng.Intn(len(kinds))]
		n := rng.Intn(9) + 2
		bytes := rng.Int63n(1 << 18)
		root := rng.Intn(n)
		opt := Options{
			Channels:   rng.Intn(3) + 1,
			ChunkBytes: rng.Int63n(1<<16) + 1024,
		}
		if rng.Bool(0.5) {
			opt.Protocol = LL
		}
		b := goal.NewBuilder(n)
		if _, err := decomposeAll(b, c.kind, c.algo, group(n), root, bytes, opt, nil); err != nil {
			return false
		}
		s := b.Build()
		if s.Validate() != nil || s.CheckMatched() != nil {
			return false
		}
		_, err := sched.Run(engine.New(), s, backend.NewLGS(backend.AIParams()), sched.Options{})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestKindAlgoStrings(t *testing.T) {
	if Allreduce.String() != "allreduce" || Ring.String() != "ring" || LLChunk >= SimpleChunk {
		t.Fatal("metadata broken")
	}
}

func BenchmarkRingAllreduceDecompose(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bld := goal.NewBuilder(64)
		if _, err := decomposeAll(bld, Allreduce, Ring, group(64), 0, 1<<20, Options{Channels: 2}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

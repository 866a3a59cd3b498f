package ncclgoal

import (
	"strings"
	"testing"
	"testing/quick"

	"atlahs/internal/backend"
	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/sched"
	"atlahs/internal/simtime"
	"atlahs/internal/trace/nsys"
	"atlahs/internal/xrand"
)

// fourGPUReport: 4 GPUs, each computing then allreducing on "world"; GPUs
// 0 and 2 additionally exchange a P2P message on comm "pp".
func fourGPUReport() *nsys.Report {
	rep := &nsys.Report{
		NGPUs: 4,
		Comms: map[string][]int{"world": {0, 1, 2, 3}, "pp": {0, 2}},
	}
	for g := 0; g < 4; g++ {
		rep.Records = append(rep.Records,
			nsys.Record{GPU: g, Stream: 7, Kind: nsys.KindKernel, StartNs: 0, EndNs: 5000},
			nsys.Record{GPU: g, Stream: 7, Kind: nsys.KindNCCL, Coll: nsys.CollAllReduce,
				Bytes: 1 << 20, Comm: "world", StartNs: 5000, EndNs: 9000},
			nsys.Record{GPU: g, Stream: 7, Kind: nsys.KindKernel, StartNs: 9500, EndNs: 12000},
		)
	}
	rep.Records = append(rep.Records,
		nsys.Record{GPU: 0, Stream: 9, Kind: nsys.KindNCCL, Coll: nsys.CollSend, Bytes: 65536, Comm: "pp", Peer: 1, StartNs: 100, EndNs: 200},
		nsys.Record{GPU: 2, Stream: 9, Kind: nsys.KindNCCL, Coll: nsys.CollRecv, Bytes: 65536, Comm: "pp", Peer: 0, StartNs: 100, EndNs: 300},
	)
	return rep
}

func TestBuildGPUSchedule(t *testing.T) {
	s, err := BuildGPUSchedule(fourGPUReport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRanks() != 4 {
		t.Fatalf("ranks=%d", s.NumRanks())
	}
	if err := s.CheckMatched(); err != nil {
		t.Fatal(err)
	}
	st := s.ComputeStats()
	// ring allreduce over 4 ranks: 2*3 sends per rank = 24, plus 1 p2p pair
	if st.Sends != 25 || st.Recvs != 25 {
		t.Fatalf("sends=%d recvs=%d, want 25/25", st.Sends, st.Recvs)
	}
	// inferred compute: each GPU has two kernels (5000 + 2500 ns) plus the
	// 500 ns gap
	res, err := sched.Run(engine.New(), s, backend.NewLGS(backend.AIParams()), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime < 8000*simtime.Nanosecond {
		t.Fatalf("runtime %v below compute floor", res.Runtime)
	}
}

func TestComputeCommOverlapPreserved(t *testing.T) {
	// stream 1 computes 10 ms while stream 2's huge allreduce runs: the
	// node schedule must overlap them (runtime ~ max, not sum).
	rep := &nsys.Report{NGPUs: 2, Comms: map[string][]int{"w": {0, 1}}}
	for g := 0; g < 2; g++ {
		rep.Records = append(rep.Records,
			nsys.Record{GPU: g, Stream: 1, Kind: nsys.KindKernel, StartNs: 0, EndNs: 10_000_000},
			nsys.Record{GPU: g, Stream: 2, Kind: nsys.KindNCCL, Coll: nsys.CollAllReduce,
				Bytes: 64 << 20, Comm: "w", StartNs: 0, EndNs: 1000},
		)
	}
	s, err := Generate(rep, Config{GPUsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(engine.New(), s, backend.NewLGS(backend.AIParams()), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// allreduce of 64 MiB at 25 GB/s moves 2*(N-1)/N*64 MiB ~ 64 MiB in
	// ~2.7 ms; compute is 10 ms. Overlapped runtime should stay close to
	// 10 ms, definitely below 12 ms.
	if res.Runtime > 12*simtime.Millisecond {
		t.Fatalf("overlap lost: runtime %v", res.Runtime)
	}
	if res.Runtime < 10*simtime.Millisecond {
		t.Fatalf("runtime %v below compute floor", res.Runtime)
	}
}

func TestGroupGPUsIntraNode(t *testing.T) {
	gpuS, err := BuildGPUSchedule(fourGPUReport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 GPUs per node: ring neighbours 0-1 and 2-3 are intra-node
	nodeS, err := GroupGPUs(gpuS, 2, 1.0/150)
	if err != nil {
		t.Fatal(err)
	}
	if nodeS.NumRanks() != 2 {
		t.Fatalf("nodes=%d", nodeS.NumRanks())
	}
	if err := nodeS.CheckMatched(); err != nil {
		t.Fatal(err)
	}
	stGPU := gpuS.ComputeStats()
	stNode := nodeS.ComputeStats()
	if stNode.Sends >= stGPU.Sends {
		t.Fatalf("no sends became intra-node calcs: %d -> %d", stGPU.Sends, stNode.Sends)
	}
	if stNode.Sends == 0 {
		t.Fatal("cross-node sends disappeared entirely")
	}
	if _, err := sched.Run(engine.New(), nodeS, backend.NewLGS(backend.AIParams()), sched.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupGPUsSingleNode(t *testing.T) {
	gpuS, err := BuildGPUSchedule(fourGPUReport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	nodeS, err := GroupGPUs(gpuS, 4, 1.0/150)
	if err != nil {
		t.Fatal(err)
	}
	if nodeS.NumRanks() != 1 {
		t.Fatalf("nodes=%d", nodeS.NumRanks())
	}
	if st := nodeS.ComputeStats(); st.Sends != 0 {
		t.Fatalf("single node still has %d sends", st.Sends)
	}
	if _, err := sched.Run(engine.New(), nodeS, backend.NewLGS(backend.AIParams()), sched.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestWhatIfRegrouping(t *testing.T) {
	// paper §3.1.2 stage 4: the same GPU trace regrouped to different node
	// counts — more nodes means more inter-node traffic and a slower run.
	gpuS, err := BuildGPUSchedule(fourGPUReport(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(perNode int) simtime.Duration {
		nodeS, err := GroupGPUs(gpuS, perNode, 1.0/150)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sched.Run(engine.New(), nodeS, backend.NewLGS(backend.AIParams()), sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Runtime
	}
	oneGPU := run(1)  // 4 nodes
	twoGPUs := run(2) // 2 nodes
	if oneGPU < twoGPUs {
		t.Fatalf("more inter-node traffic should not be faster: 1/node %v vs 2/node %v", oneGPU, twoGPUs)
	}
}

func TestMismatchedCollectiveDetected(t *testing.T) {
	rep := &nsys.Report{NGPUs: 2, Comms: map[string][]int{"w": {0, 1}}}
	rep.Records = append(rep.Records,
		nsys.Record{GPU: 0, Stream: 1, Kind: nsys.KindNCCL, Coll: nsys.CollAllReduce, Bytes: 64, Comm: "w", StartNs: 0, EndNs: 1},
		nsys.Record{GPU: 1, Stream: 1, Kind: nsys.KindNCCL, Coll: nsys.CollBroadcast, Bytes: 64, Comm: "w", StartNs: 0, EndNs: 1},
	)
	if _, err := BuildGPUSchedule(rep, Config{}); err == nil || !strings.Contains(err.Error(), "launches") {
		t.Fatalf("collective mismatch not detected: %v", err)
	}
	rep2 := &nsys.Report{NGPUs: 2, Comms: map[string][]int{"w": {0, 1}}}
	rep2.Records = append(rep2.Records,
		nsys.Record{GPU: 0, Stream: 1, Kind: nsys.KindNCCL, Coll: nsys.CollAllReduce, Bytes: 64, Comm: "w", StartNs: 0, EndNs: 1},
	)
	if _, err := BuildGPUSchedule(rep2, Config{}); err == nil || !strings.Contains(err.Error(), "missing collective") {
		t.Fatalf("missing collective not detected: %v", err)
	}
}

func TestChannelsAndProtocol(t *testing.T) {
	rep := fourGPUReport()
	s1, err := Generate(rep, Config{GPUsPerNode: 1, Channels: 1})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Generate(rep, Config{GPUsPerNode: 1, Channels: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s2.ComputeStats().Sends <= s1.ComputeStats().Sends {
		t.Fatal("more channels should emit more messages")
	}
	sLL, err := Generate(rep, Config{GPUsPerNode: 1, Protocol: 1 /* LL */})
	if err != nil {
		t.Fatal(err)
	}
	if sLL.ComputeStats().SendBytes <= s1.ComputeStats().SendBytes {
		t.Fatal("LL should double wire bytes")
	}
}

// Property: random multi-stream, multi-comm reports produce valid,
// matched, runnable node schedules at any grouping.
func TestPipelineProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		ngpus := []int{2, 4, 8}[rng.Intn(3)]
		rep := &nsys.Report{NGPUs: ngpus, Comms: map[string][]int{}}
		world := make([]int, ngpus)
		for i := range world {
			world[i] = i
		}
		rep.Comms["world"] = world
		colls := []string{nsys.CollAllReduce, nsys.CollAllGather, nsys.CollReduceScatter, nsys.CollAllToAll, nsys.CollBroadcast}
		nops := rng.Intn(4) + 1
		for g := 0; g < ngpus; g++ {
			ts := int64(rng.Intn(1000))
			for k := 0; k < nops; k++ {
				// identical collective sequence on every gpu, jittered times
				kern := ts + rng.Int63n(2000)
				rep.Records = append(rep.Records, nsys.Record{
					GPU: g, Stream: 3, Kind: nsys.KindKernel, StartNs: ts, EndNs: kern,
				})
				collRng := xrand.New(seed ^ uint64(k)) // same per k across gpus
				coll := colls[collRng.Intn(len(colls))]
				bytes := collRng.Int63n(1<<20) + 1
				end := kern + rng.Int63n(2000) + 1
				rep.Records = append(rep.Records, nsys.Record{
					GPU: g, Stream: 3, Kind: nsys.KindNCCL, Coll: coll, Bytes: bytes,
					Comm: "world", StartNs: kern, EndNs: end,
				})
				ts = end
			}
		}
		if rep.Validate() != nil {
			return false
		}
		for _, perNode := range []int{1, 2, ngpus} {
			s, err := Generate(rep, Config{GPUsPerNode: perNode, Channels: rng.Intn(2) + 1})
			if err != nil {
				return false
			}
			if s.CheckMatched() != nil {
				return false
			}
			if _, err := sched.Run(engine.New(), s, backend.NewLGS(backend.AIParams()), sched.Options{}); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupGPUsErrors(t *testing.T) {
	b := goal.NewBuilder(2)
	b.Rank(0).Send(64, 1, 0)
	b.Rank(1).Recv(64, 0, 0)
	s := b.MustBuild()
	if _, err := GroupGPUs(s, 0, 1); err == nil {
		t.Fatal("zero gpusPerNode accepted")
	}
	// unpaired intra-node transfer: send without recv
	b2 := goal.NewBuilder(2)
	b2.Rank(0).Send(64, 1, 0)
	b2.Rank(1).Recv(64, 0, 0)
	b2.Rank(0).Send(64, 1, 0) // second send, no matching recv
	if _, err := GroupGPUs(b2.Build(), 2, 1); err == nil || !strings.Contains(err.Error(), "0->1 tag 0") {
		t.Fatalf("unpaired intra-node transfer: %v", err)
	}
	// only one side at all, and a stream of receives that sorts before the
	// only stream of sends
	for name, build := range map[string]func(b *goal.Builder){
		"send only": func(b *goal.Builder) { b.Rank(1).Send(64, 0, 3) },
		"recv only": func(b *goal.Builder) { b.Rank(1).Recv(64, 0, 3) },
		"recv sorts first": func(b *goal.Builder) {
			b.Rank(1).Send(64, 0, 3)
			b.Rank(0).Recv(64, 1, 3)
			b.Rank(1).Recv(64, 0, 9)
		},
	} {
		b := goal.NewBuilder(2)
		build(b)
		if _, err := GroupGPUs(b.Build(), 2, 1); err == nil || !strings.Contains(err.Error(), "different numbers") {
			t.Errorf("%s: %v", name, err)
		}
	}
}

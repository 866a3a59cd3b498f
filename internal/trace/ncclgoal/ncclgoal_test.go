package ncclgoal

import (
	"bytes"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"atlahs/internal/backend"
	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/sched"
	"atlahs/internal/simtime"
	"atlahs/internal/trace/nsys"
	"atlahs/internal/workload/llm"
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

// TestOneRankPerGPU: with one GPU per node the node schedule is the GPU
// schedule — every message crosses nodes and keeps its semantics.
func TestOneRankPerGPU(t *testing.T) {
	s, err := Generate(fourGPUReport(), Config{GPUsPerNode: 1})
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

func TestIntraNodeTransfersBecomeCalcs(t *testing.T) {
	gpuS, err := Generate(fourGPUReport(), Config{GPUsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 2 GPUs per node: ring neighbours 0-1 and 2-3 are intra-node
	nodeS, err := Generate(fourGPUReport(), Config{GPUsPerNode: 2})
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
	if stNode.Ops != stGPU.Ops {
		t.Fatalf("regrouping changed the op count: %d -> %d", stGPU.Ops, stNode.Ops)
	}
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

func TestSingleNodeHasNoSends(t *testing.T) {
	nodeS, err := Generate(fourGPUReport(), Config{GPUsPerNode: 4})
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
	run := func(perNode int) simtime.Duration {
		nodeS, err := Generate(fourGPUReport(), Config{GPUsPerNode: perNode})
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
	member := func(gpu int, coll string, bytes int64, root int) nsys.Record {
		return nsys.Record{GPU: gpu, Stream: 1, Kind: nsys.KindNCCL, Coll: coll, Bytes: bytes, Comm: "w", Root: root, StartNs: 0, EndNs: 1}
	}
	for _, c := range []struct {
		name    string
		records []nsys.Record
		want    string
	}{
		{"collectives differ", []nsys.Record{member(0, nsys.CollAllReduce, 64, 0), member(1, nsys.CollBroadcast, 64, 0)}, "launches"},
		{"collective missing", []nsys.Record{member(0, nsys.CollAllReduce, 64, 0)}, "missing collective"},
		{"bytes differ", []nsys.Record{member(0, nsys.CollAllReduce, 4096, 0), member(1, nsys.CollAllReduce, 8192, 0)}, "moves 8192 bytes while GPU 0's moves 4096"},
		{"broadcast roots differ", []nsys.Record{member(0, nsys.CollBroadcast, 64, 0), member(1, nsys.CollBroadcast, 64, 1)}, "has root 1 while GPU 0's has root 0"},
		{"broadcast root outside communicator", []nsys.Record{member(0, nsys.CollBroadcast, 64, 2), member(1, nsys.CollBroadcast, 64, 2)}, "root 2 out of communicator range"},
	} {
		rep := &nsys.Report{NGPUs: 2, Comms: map[string][]int{"w": {0, 1}}, Records: c.records}
		if _, err := Generate(rep, Config{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
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

// p2pReport is a 2-GPU report whose only records are P2P ones on a
// communicator of both GPUs, in the order given.
func p2pReport(recs ...nsys.Record) *nsys.Report {
	rep := &nsys.Report{NGPUs: 2, Comms: map[string][]int{"pp": {0, 1}}}
	for i, r := range recs {
		r.Kind, r.Comm, r.StartNs, r.EndNs = nsys.KindNCCL, "pp", int64(10*i), int64(10*i+5)
		rep.Records = append(rep.Records, r)
	}
	return rep
}

func TestIntraNodePairingErrors(t *testing.T) {
	send := nsys.Record{GPU: 0, Coll: nsys.CollSend, Peer: 1, Bytes: 64}
	recv := nsys.Record{GPU: 1, Coll: nsys.CollRecv, Peer: 0, Bytes: 64}
	// the same transfers are fine across nodes and paired within one
	for _, perNode := range []int{1, 2} {
		if _, err := Generate(p2pReport(send, recv, send, recv), Config{GPUsPerNode: perNode}); err != nil {
			t.Fatalf("%d GPUs per node: %v", perNode, err)
		}
	}
	for name, rep := range map[string]*nsys.Report{
		"send without recv": p2pReport(send, recv, send),
		"send only":         p2pReport(send),
		"recv only":         p2pReport(recv),
		// a stream of receives that sorts before the only stream of sends
		"recv sorts first": p2pReport(nsys.Record{GPU: 1, Coll: nsys.CollSend, Peer: 0}, nsys.Record{GPU: 0, Coll: nsys.CollRecv, Peer: 1}, recv),
	} {
		if _, err := Generate(rep, Config{GPUsPerNode: 2}); err == nil || !strings.Contains(err.Error(), "different numbers") {
			t.Errorf("%s: %v", name, err)
		}
		if _, err := Generate(rep, Config{GPUsPerNode: 1}); err != nil {
			t.Errorf("%s across nodes: %v", name, err)
		}
	}
	if _, err := Generate(p2pReport(send, recv, send), Config{GPUsPerNode: 2}); err == nil || !strings.Contains(err.Error(), "0->1 tag") {
		t.Errorf("unpaired send: %v", err)
	}
}

// TestNegativeWireSizeRejected: an LL transfer whose doubled size
// overflows is rejected wherever it lands — also when it stays in a node,
// where it becomes a calc.
func TestNegativeWireSizeRejected(t *testing.T) {
	huge := int64(1)<<62 + 1
	rep := p2pReport(nsys.Record{GPU: 0, Coll: nsys.CollSend, Peer: 1, Bytes: 8}, nsys.Record{GPU: 1, Coll: nsys.CollRecv, Peer: 0, Bytes: huge})
	for _, perNode := range []int{1, 2} {
		_, err := Generate(rep, Config{GPUsPerNode: perNode, Protocol: 1 /* LL */})
		if err == nil || !strings.Contains(err.Error(), "rank 1 op 3: negative size") {
			t.Errorf("%d GPUs per node: %v", perNode, err)
		}
	}
}

// TestGenerateAllocationsDoNotScale: the pipeline allocates nothing per
// record, per collective or per op. The DP8 fixture has twice the GPUs,
// records and ops of the DP4 one, and converting it allocates as often
// except for the four arrays each of its 8 extra node ranks owns (ops,
// two offset arrays, edges) and a map doubling or two.
func TestGenerateAllocationsDoNotScale(t *testing.T) {
	const perNode = 4
	allocs := func(dp int) (float64, int) {
		rep, err := llm.Generate(llm.Config{Model: llm.Llama7B(), Par: llm.Parallelism{TP: 2, PP: 2, DP: dp, EP: 1, GlobalBatch: 4 * dp}, Scale: 1e-3, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var s *goal.Schedule
		a := testing.AllocsPerRun(3, func() {
			if s, err = Generate(rep, Config{GPUsPerNode: 2}); err != nil {
				t.Fatal(err)
			}
		})
		return a, s.NumRanks()
	}
	dp4, nodes4 := allocs(4)
	dp8, nodes8 := allocs(8)
	t.Logf("allocations per conversion: DP4 %.0f (%d nodes), DP8 %.0f (%d nodes)", dp4, nodes4, dp8, nodes8)
	if limit := dp4 + float64(perNode*(nodes8-nodes4)+4); dp8 > limit {
		t.Errorf("DP8 allocated %.0f times, more than DP4's %.0f plus %d per extra node rank: the pipeline allocates per record, collective or op", dp8, dp4, perNode)
	}
}

// TestByStream: stage 1 files every record under its GPU and stream, in
// (start, file) order, GPU by GPU and stream by ascending id, on a plan
// whose arrays a larger report left behind.
func TestByStream(t *testing.T) {
	p := &plan{}
	big := fourGPUReport()
	big.NGPUs = 6
	for i := range 3 * len(big.Records) {
		big.Records = append(big.Records, nsys.Record{GPU: i % 6, Stream: i % 5, Kind: nsys.KindKernel, StartNs: int64(i)})
	}
	p.rep = big
	p.index()

	r := fourGPUReport()
	// a late-filed record that starts before everything else on its stream
	r.Records = append(r.Records, nsys.Record{GPU: 0, Stream: 7, Kind: nsys.KindKernel, StartNs: -1, EndNs: 0})
	p.rep = r
	p.index()
	if len(p.gpuLo) != r.NGPUs+1 {
		t.Fatalf("%d GPUs indexed, want %d", len(p.gpuLo)-1, r.NGPUs)
	}
	id := func(s int32) int { return r.Records[p.stream(s)[0]].Stream }
	if lo, hi := p.gpuLo[0], p.gpuLo[1]; hi-lo != 2 || id(lo) != 7 || id(lo+1) != 9 {
		t.Fatalf("GPU 0 has streams %d to %d, want two: ids 7 and 9", lo, hi)
	}
	seen := 0
	for gpu := range r.NGPUs {
		for s := p.gpuLo[gpu]; s < p.gpuLo[gpu+1]; s++ {
			recs := p.stream(s)
			for k, ri := range recs {
				rec := r.Records[ri]
				if rec.GPU != gpu || rec.Stream != id(s) {
					t.Fatalf("record %d filed under gpu %d stream %d", ri, gpu, id(s))
				}
				if k > 0 {
					prev := r.Records[recs[k-1]]
					if prev.StartNs > rec.StartNs || (prev.StartNs == rec.StartNs && recs[k-1] > ri) {
						t.Fatalf("gpu %d stream %d not in (start, file) order: %v", gpu, id(s), recs)
					}
				}
				seen++
			}
		}
	}
	if seen != len(r.Records) {
		t.Fatalf("index covers %d of %d records", seen, len(r.Records))
	}
	recs := p.stream(p.gpuLo[0])
	if len(recs) != 4 || int(recs[0]) != len(r.Records)-1 || r.Records[recs[1]].Kind != nsys.KindKernel || r.Records[recs[2]].Coll != nsys.CollAllReduce {
		t.Fatalf("gpu 0 stream 7 = %v", recs)
	}
}

// BenchmarkConvert converts the Llama-7B trace of sim.TestConvertAllocation
// (TP 2, PP 2, DP 4, scale 1e-3, seed 3, two GPUs per node) through the
// frontend, warm: the first conversion, outside the timer, leaves the
// scratch every later one reuses.
func BenchmarkConvert(b *testing.B) {
	rep, err := llm.Generate(llm.Config{Model: llm.Llama7B(), Par: llm.Parallelism{TP: 2, PP: 2, DP: 4, EP: 1, GlobalBatch: 16}, Scale: 1e-3, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rep.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	cfg := Config{GPUsPerNode: 2}
	if _, err := convert(buf.Bytes(), cfg); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := convert(buf.Bytes(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestKeptScratch holds the retention rule: a sequence of conversions
// shares one kept scratch, and the scratch Generate returns keeps nothing
// of the caller's report alive.
func TestKeptScratch(t *testing.T) {
	for kept.Len() > 0 {
		kept.Take()
	}
	var gone atomic.Int32
	func() {
		rep := fourGPUReport()
		runtime.AddCleanup(rep, func(int) { gone.Add(1) }, 0)
		runtime.AddCleanup(&rep.Records[0], func(int) { gone.Add(1) }, 0)
		for _, per := range []int{1, 2, 4} {
			if _, err := Generate(rep, Config{GPUsPerNode: per}); err != nil {
				t.Fatal(err)
			}
		}
	}()
	n := kept.Len()
	if n != 1 {
		t.Fatalf("three conversions in sequence left %d scratches, want 1", n)
	}
	// Cleanups run on a goroutine of their own after the cycle that frees
	// their object.
	for i := 0; i < 50 && gone.Load() < 2; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := gone.Load(); n != 2 {
		t.Fatalf("%d of the report and its records collected after Generate returned, want 2", n)
	}
}

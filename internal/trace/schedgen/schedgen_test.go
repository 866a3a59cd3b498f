package schedgen

import (
	"strings"
	"testing"

	"atlahs/internal/backend"
	"atlahs/internal/collective"
	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/sched"
	"atlahs/internal/simtime"
	"atlahs/internal/trace/mpitrace"
)

// pingPongTrace: rank 0 computes 10us, sends 4 KiB; rank 1 receives and
// replies; rank 0 receives the reply.
func pingPongTrace() *mpitrace.Trace {
	t := mpitrace.New(2)
	t.Append(0, mpitrace.Event{Type: mpitrace.Init, Peer: -1, Root: -1, Start: 0, End: 0})
	t.Append(0, mpitrace.Event{Type: mpitrace.Send, Peer: 1, Bytes: 4096, Tag: 1, Root: -1, Start: 10000, End: 10100})
	t.Append(0, mpitrace.Event{Type: mpitrace.Recv, Peer: 1, Bytes: 4096, Tag: 2, Root: -1, Start: 10200, End: 30000})
	t.Append(1, mpitrace.Event{Type: mpitrace.Init, Peer: -1, Root: -1, Start: 0, End: 0})
	t.Append(1, mpitrace.Event{Type: mpitrace.Recv, Peer: 0, Bytes: 4096, Tag: 1, Root: -1, Start: 100, End: 15000})
	t.Append(1, mpitrace.Event{Type: mpitrace.Send, Peer: 0, Bytes: 4096, Tag: 2, Root: -1, Start: 15100, End: 15200})
	return t
}

func TestPingPongConversion(t *testing.T) {
	s, err := Generate(pingPongTrace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckMatched(); err != nil {
		t.Fatal(err)
	}
	st := s.ComputeStats()
	if st.Sends != 2 || st.Recvs != 2 {
		t.Fatalf("stats %+v", st)
	}
	// rank 0 gap before its send: 10000 ns of compute
	var calcNs int64
	for i := range s.Ranks[0].Len() {
		if s.Ranks[0].Op(i).Kind() == goal.KindCalc {
			calcNs += s.Ranks[0].Op(i).Size()
		}
	}
	if calcNs != 10000+100 {
		t.Fatalf("rank 0 inferred compute %d ns, want 10100 (10000 pre-send + 100 pre-recv)", calcNs)
	}
	// runs to completion
	res, err := sched.Run(engine.New(), s, backend.NewLGS(backend.HPCParams()), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime < 10*simtime.Microsecond {
		t.Fatalf("runtime %v below the inferred compute floor", res.Runtime)
	}
}

func TestWaitSemantics(t *testing.T) {
	// rank 0: Irecv + compute + Wait: compute overlaps the transfer
	tr := mpitrace.New(2)
	tr.Append(0, mpitrace.Event{Type: mpitrace.Irecv, Peer: 1, Bytes: 1 << 20, Tag: 1, Req: 9, Root: -1, Start: 0, End: 10})
	tr.Append(0, mpitrace.Event{Type: mpitrace.Wait, Peer: -1, Req: 9, Root: -1, Start: 100010, End: 200000})
	tr.Append(1, mpitrace.Event{Type: mpitrace.Send, Peer: 0, Bytes: 1 << 20, Tag: 1, Root: -1, Start: 0, End: 100})
	s, err := Generate(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(engine.New(), s, backend.NewLGS(backend.AIParams()), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 100 us of compute overlapping a ~42 us transfer: runtime ~ compute
	lo, hi := 100*simtime.Microsecond, 120*simtime.Microsecond
	if res.Runtime < lo || res.Runtime > hi {
		t.Fatalf("overlap broken: runtime %v, want ~100us", res.Runtime)
	}
}

func TestWaitUnknownReq(t *testing.T) {
	tr := mpitrace.New(1)
	tr.Append(0, mpitrace.Event{Type: mpitrace.Wait, Peer: -1, Req: 42, Root: -1, Start: 0, End: 1})
	if _, err := Generate(tr, Options{}); err == nil || !strings.Contains(err.Error(), "unknown request") {
		t.Fatalf("unknown request not detected: %v", err)
	}
}

func collectiveTrace(n int, typ mpitrace.OpType, bytes int64, root int) *mpitrace.Trace {
	tr := mpitrace.New(n)
	for r := 0; r < n; r++ {
		tr.Append(r, mpitrace.Event{Type: mpitrace.Init, Peer: -1, Root: -1, Start: 0, End: 0})
		tr.Append(r, mpitrace.Event{Type: typ, Peer: -1, Bytes: bytes, Root: root, Start: 1000, End: 50000})
		tr.Append(r, mpitrace.Event{Type: mpitrace.Finalize, Peer: -1, Root: -1, Start: 60000, End: 60010})
	}
	return tr
}

func TestCollectiveSubstitution(t *testing.T) {
	for _, typ := range []mpitrace.OpType{
		mpitrace.Allreduce, mpitrace.Bcast, mpitrace.Allgather,
		mpitrace.ReduceScatter, mpitrace.Alltoall, mpitrace.Barrier,
		mpitrace.ReduceOp, mpitrace.Gather, mpitrace.Scatter,
	} {
		tr := collectiveTrace(4, typ, 8192, 1)
		s, err := Generate(tr, Options{})
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		if err := s.CheckMatched(); err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		if typ != mpitrace.Barrier {
			if st := s.ComputeStats(); st.Sends == 0 {
				t.Fatalf("%v: no p2p substitution", typ)
			}
		}
		if _, err := sched.Run(engine.New(), s, backend.NewLGS(backend.HPCParams()), sched.Options{}); err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
	}
}

func TestAlgoSelection(t *testing.T) {
	tr := collectiveTrace(8, mpitrace.Allreduce, 1<<20, -1)
	ringS, err := Generate(tr, Options{Algos: map[collective.Kind]collective.Algo{collective.Allreduce: collective.Ring}})
	if err != nil {
		t.Fatal(err)
	}
	rdS, err := Generate(tr, Options{Algos: map[collective.Kind]collective.Algo{collective.Allreduce: collective.RecDoubling}})
	if err != nil {
		t.Fatal(err)
	}
	ringBytes := ringS.ComputeStats().SendBytes
	rdBytes := rdS.ComputeStats().SendBytes
	// recursive doubling sends the full vector log2(8)=3 times per rank:
	// 3*8 sends of 1 MiB = 24 MiB total; ring sends 2*7/8 per rank = 14 MiB.
	if rdBytes <= ringBytes {
		t.Fatalf("recdoubling (%d B) should move more bytes than ring (%d B) at this size", rdBytes, ringBytes)
	}
}

func TestCollectiveCountMismatch(t *testing.T) {
	tr := mpitrace.New(2)
	tr.Append(0, mpitrace.Event{Type: mpitrace.Allreduce, Peer: -1, Bytes: 64, Root: -1, Start: 0, End: 10})
	// rank 1 never calls the collective
	tr.Append(1, mpitrace.Event{Type: mpitrace.Init, Peer: -1, Root: -1, Start: 0, End: 10})
	if _, err := Generate(tr, Options{}); err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Fatalf("mismatch not detected: %v", err)
	}
}

func TestCollectiveTypeMismatch(t *testing.T) {
	tr := mpitrace.New(2)
	tr.Append(0, mpitrace.Event{Type: mpitrace.Allreduce, Peer: -1, Bytes: 64, Root: -1, Start: 0, End: 10})
	tr.Append(1, mpitrace.Event{Type: mpitrace.Barrier, Peer: -1, Root: -1, Start: 0, End: 10})
	if _, err := Generate(tr, Options{}); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("type mismatch not detected: %v", err)
	}
}

func TestMinComputeFilter(t *testing.T) {
	tr := mpitrace.New(2)
	tr.Append(0, mpitrace.Event{Type: mpitrace.Send, Peer: 1, Bytes: 8, Tag: 0, Root: -1, Start: 50, End: 60})
	tr.Append(0, mpitrace.Event{Type: mpitrace.Send, Peer: 1, Bytes: 8, Tag: 1, Root: -1, Start: 5060, End: 5070})
	tr.Append(1, mpitrace.Event{Type: mpitrace.Recv, Peer: 0, Bytes: 8, Tag: 0, Root: -1, Start: 0, End: 10})
	tr.Append(1, mpitrace.Event{Type: mpitrace.Recv, Peer: 0, Bytes: 8, Tag: 1, Root: -1, Start: 10, End: 20})
	s, err := Generate(tr, Options{MinComputeNs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// the 50 ns initial gap is filtered; the 5000 ns inter-send gap stays
	st := s.ComputeStats()
	if st.Calcs != 1 || st.CalcNanos != 5000 {
		t.Fatalf("calc filtering wrong: %+v", st)
	}
}

func TestMultipleCollectivesChained(t *testing.T) {
	tr := mpitrace.New(4)
	for r := 0; r < 4; r++ {
		tr.Append(r, mpitrace.Event{Type: mpitrace.Bcast, Peer: -1, Bytes: 4096, Root: 0, Start: 100, End: 500})
		tr.Append(r, mpitrace.Event{Type: mpitrace.Allreduce, Peer: -1, Bytes: 4096, Root: -1, Start: 1000, End: 2000})
		tr.Append(r, mpitrace.Event{Type: mpitrace.Barrier, Peer: -1, Root: -1, Start: 3000, End: 4000})
	}
	s, err := Generate(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckMatched(); err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(engine.New(), s, backend.NewLGS(backend.HPCParams()), sched.Options{}); err != nil {
		t.Fatal(err)
	}
}

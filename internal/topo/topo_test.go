package topo

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"atlahs/internal/simtime"
)

func mkFatTree(t *testing.T, hosts, perTor, cores int) *Topology {
	t.Helper()
	tp, err := NewFatTree(FatTreeConfig{
		Hosts: hosts, HostsPerToR: perTor, Cores: cores,
		Link: DefaultLinkSpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestFatTreeShape(t *testing.T) {
	tp := mkFatTree(t, 16, 4, 4)
	if tp.NumHosts() != 16 {
		t.Fatalf("hosts=%d", tp.NumHosts())
	}
	// 16 hosts + 4 ToR + 4 core
	if len(tp.Devices) != 24 {
		t.Fatalf("devices=%d", len(tp.Devices))
	}
	// host links: 16 duplex; uplinks: 4*4 duplex => (16+16)*2 unidirectional
	if len(tp.Links) != 64 {
		t.Fatalf("links=%d", len(tp.Links))
	}
}

func TestFatTreeErrors(t *testing.T) {
	if _, err := NewFatTree(FatTreeConfig{Hosts: 10, HostsPerToR: 4, Cores: 2}); err == nil {
		t.Fatal("indivisible host count accepted")
	}
	if _, err := NewFatTree(FatTreeConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
	// A link that serialises in no time or sends bytes back in time would
	// give a flow an infinite or negative rate and a packet a departure in
	// the past.
	for _, link := range []LinkSpec{
		{Latency: 500 * simtime.Nanosecond, PsPerByte: 0, BufBytes: 1 << 20},
		{Latency: 500 * simtime.Nanosecond, PsPerByte: -40, BufBytes: 1 << 20},
		{Latency: -1, PsPerByte: 40, BufBytes: 1 << 20},
	} {
		if _, err := NewFatTree(FatTreeConfig{Hosts: 4, HostsPerToR: 2, Cores: 2, Link: link}); err == nil {
			t.Errorf("link %+v accepted", link)
		}
	}
	zeroLatency := LinkSpec{PsPerByte: 40, BufBytes: 1 << 20}
	if _, err := NewFatTree(FatTreeConfig{Hosts: 4, HostsPerToR: 2, Cores: 2, Link: zeroLatency}); err != nil {
		t.Errorf("zero latency refused: %v", err)
	}
}

func TestSameToRPathIsTwoHops(t *testing.T) {
	tp := mkFatTree(t, 16, 4, 4)
	paths := tp.Paths(0, 1) // same ToR
	if len(paths) != 1 {
		t.Fatalf("same-ToR pairs should have exactly 1 shortest path, got %d", len(paths))
	}
	if len(paths[0]) != 2 {
		t.Fatalf("same-ToR path length %d, want 2 links", len(paths[0]))
	}
}

func TestCrossToRPathsUseAllCores(t *testing.T) {
	tp := mkFatTree(t, 16, 4, 4)
	paths := tp.Paths(0, 15) // different ToRs
	if len(paths) != 4 {
		t.Fatalf("cross-ToR ECMP width %d, want 4 (one per core)", len(paths))
	}
	for _, p := range paths {
		if len(p) != 4 {
			t.Fatalf("cross-ToR path length %d, want 4 links", len(p))
		}
	}
}

func TestPathContinuity(t *testing.T) {
	tp := mkFatTree(t, 32, 8, 2)
	for src := 0; src < 4; src++ {
		for dst := 8; dst < 12; dst++ {
			for _, p := range tp.Paths(src, dst) {
				cur := tp.HostDevice(src)
				for _, lid := range p {
					l := tp.Links[lid]
					if l.From != cur {
						t.Fatalf("discontinuous path: link %d starts at %d, expected %d", lid, l.From, cur)
					}
					cur = l.To
				}
				if cur != tp.HostDevice(dst) {
					t.Fatalf("path ends at %d, want %d", cur, tp.HostDevice(dst))
				}
			}
		}
	}
}

// A Topology is shared by concurrent simulations, so Paths must not store
// anything in it: equal results, distinct storage, and no race when called
// from several goroutines at once (CI runs this under -race).
func TestPathsComputesWithoutStoring(t *testing.T) {
	tp := mkFatTree(t, 16, 4, 4)
	a := tp.Paths(0, 5)
	b := tp.Paths(0, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Paths not deterministic: %v vs %v", a, b)
	}
	if &a[0] == &b[0] {
		t.Fatal("Paths returned shared storage: the topology memoises")
	}
	if tp.Paths(3, 3) != nil {
		t.Fatal("self path should be nil")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for dst := 1; dst < 16; dst++ {
				if len(tp.Paths(0, dst)) == 0 {
					t.Errorf("no path 0->%d", dst)
				}
			}
		}()
	}
	wg.Wait()
}

func TestECMPSelectors(t *testing.T) {
	if ECMP(1, 99) != 0 || Spray(1, 99, 5) != 0 {
		t.Fatal("single path must pick 0")
	}
	// ECMP spreads flows over all paths, Spray one flow's packets
	flows, pkts := map[int]bool{}, map[int]bool{}
	for i := uint64(0); i < 200; i++ {
		flows[ECMP(4, i)] = true
		pkts[Spray(4, 42, i)] = true
	}
	if len(flows) != 4 || len(pkts) != 4 {
		t.Fatalf("ECMP covered %d/4 paths, spray %d/4", len(flows), len(pkts))
	}
}

func TestSelectorsInRangeProperty(t *testing.T) {
	f := func(flow, seq uint64, n uint8) bool {
		np := int(n%16) + 1
		a := ECMP(np, flow)
		b := Spray(np, flow, seq)
		return a >= 0 && a < np && b >= 0 && b < np
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultLinkSpec(t *testing.T) {
	spec := DefaultLinkSpec()
	if spec.PsPerByte != 40 {
		t.Fatalf("PsPerByte=%d, want 40 (25 GB/s)", spec.PsPerByte)
	}
	if spec.Latency != 500*simtime.Nanosecond {
		t.Fatalf("latency=%v", spec.Latency)
	}
	if spec.BufBytes != 1<<20 {
		t.Fatalf("buffer=%d, want 1 MiB", spec.BufBytes)
	}
}

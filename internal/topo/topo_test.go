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
		HostLink: DefaultLinkSpec(), UplinkLink: DefaultLinkSpec(),
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
	var fh FlowHashECMP
	// same flow always picks the same path
	p := fh.Pick(7, 42, 0)
	for seq := uint64(1); seq < 100; seq++ {
		if fh.Pick(7, 42, seq) != p {
			t.Fatal("FlowHashECMP not stable per flow")
		}
	}
	if fh.Pick(1, 99, 0) != 0 {
		t.Fatal("single path must pick 0")
	}
	// spraying covers all paths eventually
	var ps PacketSpray
	seen := map[int]bool{}
	for seq := uint64(0); seq < 200; seq++ {
		seen[ps.Pick(4, 42, seq)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("spray covered %d/4 paths", len(seen))
	}
}

func TestSelectorsInRangeProperty(t *testing.T) {
	f := func(flow, seq uint64, n uint8) bool {
		np := int(n%16) + 1
		a := FlowHashECMP{}.Pick(np, flow, seq)
		b := PacketSpray{}.Pick(np, flow, seq)
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

package experiments

import (
	"strings"
	"testing"
)

func TestFig1CQuick(t *testing.T) {
	res, err := ComputeFig1C(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.MPRDMA <= 0 || r.Swift <= 0 {
			t.Fatalf("zero runtime in %+v", r)
		}
	}
	// synthetic benchmarks: the two algorithms within 25% of each other
	for _, r := range res.Rows[:2] {
		if d := abs(r.DeltaPct); d > 25 {
			t.Errorf("synthetic workload %q diverges %0.1f%%", r.Workload, d)
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Swift") {
		t.Fatal("no output produced")
	}
}

func TestTable1Quick(t *testing.T) {
	res, err := ComputeTable1(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 4 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.TraceBytes <= 0 || r.GOALBytes <= 0 {
			t.Fatalf("zero size in %+v", r)
		}
	}
}

func TestFig8Quick(t *testing.T) {
	res, err := ComputeFig8(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	sawAstraOK, sawAstraFail := false, false
	for _, r := range res.Rows {
		if r.Measured <= 0 || r.LGS <= 0 || r.Pkt <= 0 {
			t.Fatalf("zero runtime in %+v", r)
		}
		// ATLAHS backends should track the fluid testbed reasonably
		if a := abs(r.LGSErrPct); a > 40 {
			t.Errorf("%s: LGS error %.1f%% implausibly large", r.Label, a)
		}
		if r.ComputePct <= 0 || r.ComputePct > 100 {
			t.Errorf("%s: compute%% = %.1f", r.Label, r.ComputePct)
		}
		if r.AstraErr == "" {
			sawAstraOK = true
		} else {
			sawAstraFail = true
		}
	}
	if !sawAstraOK {
		t.Error("astra baseline never succeeded (should run the pure-DP config)")
	}
	if !sawAstraFail {
		t.Error("astra baseline never failed (should reject PP/TP configs)")
	}
}

func TestFig9Quick(t *testing.T) {
	res, err := ComputeFig9(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.Ratio <= 1 {
			t.Errorf("%s: Chakra (%d B) not larger than GOAL (%d B)", r.Label, r.ChakraBytes, r.GOALBytes)
		}
	}
}

func TestFig10Quick(t *testing.T) {
	res, err := ComputeFig10(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	if res.MaxAbsErrPct > 8 {
		t.Errorf("worst error %.1f%% above the paper's ~5%% band", res.MaxAbsErrPct)
	}
}

func TestFig11Quick(t *testing.T) {
	res, err := ComputeFig11(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells=%d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Msgs == 0 || c.MeanUs <= 0 || c.MaxUs < c.P99Us || c.P99Us < c.MeanUs {
			t.Fatalf("inconsistent MCT cell %+v", c)
		}
	}
}

func TestFig12Quick(t *testing.T) {
	res, err := ComputeFig12(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	full, over := res.Rows[0], res.Rows[1]
	// oversubscription must slow the packet backend while LGS is oblivious
	if over.Pkt <= full.Pkt {
		t.Errorf("oversubscribed pkt (%v) not slower than 1:1 (%v)", over.Pkt, full.Pkt)
	}
	if full.LGS != over.LGS {
		t.Error("LGS should be identical across topologies (topology-oblivious)")
	}
	if abs(over.GapPct) <= abs(full.GapPct) {
		t.Errorf("LGS error should grow with oversubscription: %.1f%% vs %.1f%%", full.GapPct, over.GapPct)
	}
}

func TestFig13Quick(t *testing.T) {
	res, err := ComputeFig13(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	// the communication-bound job must suffer more from random placement
	if res.LlamaDeltaPct < res.LULESHDeltaPct {
		t.Errorf("Llama (%.0f%%) should suffer more than LULESH (%.0f%%)", res.LlamaDeltaPct, res.LULESHDeltaPct)
	}
}

func TestComputeOnlyRuntime(t *testing.T) {
	// via a tiny handmade schedule: two streams 5+5 and 7 -> 10 max
	b := mustScheduleForComputeTest()
	if got := ComputeOnlyRuntime(b); got.Nanoseconds() != 10 {
		t.Fatalf("ComputeOnlyRuntime=%v, want 10ns", got)
	}
}

// Package oltp synthesises SPC block-I/O traces with the published
// characteristics of the UMass Trace Repository "Financial" OLTP traces —
// the storage workload generator feeding the paper's storage case study
// (§3.1.3, Fig 11). The trace format itself lives in internal/trace/spc;
// this package is the generator side, mirroring how internal/workload/llm
// and internal/workload/hpcapps generate the AI and HPC trace formats.
package oltp

import (
	"sort"

	"atlahs/internal/trace/spc"
	"atlahs/internal/xrand"
)

// FinancialConfig sizes and seeds the synthetic Financial-distribution
// generator.
type FinancialConfig struct {
	Ops  int
	Seed uint64
}

// The published profile of the UMass Financial1 OLTP trace: write-heavy,
// 512-byte-multiple transfers dominated by small requests, skewed block
// reuse, bursty arrivals.
const (
	asus          = 24      // application storage units
	writeFraction = 0.77    // share of writes
	meanGapUs     = 30      // mean inter-arrival in microseconds
	burstProb     = 0.35    // probability the next op arrives immediately
	hotBlocks     = 1 << 16 // size of the skewed block working set
)

// GenerateFinancial synthesises an OLTP-like trace with the Financial
// profile. Output is sorted by timestamp and validates.
func GenerateFinancial(cfg FinancialConfig) *spc.Trace {
	rng := xrand.New(cfg.Seed ^ 0x46494e31) // "FIN1"
	zip := xrand.NewZipf(rng, hotBlocks, 1.1)
	t := &spc.Trace{Ops: make([]spc.Op, 0, cfg.Ops)}
	now := 0.0
	for i := 0; i < cfg.Ops; i++ {
		if !rng.Bool(burstProb) {
			now += rng.Exp(meanGapUs) * 1e-6
		}
		// transfer sizes: 512 B blocks, geometric-ish mix peaking small
		blocks := int64(1)
		for blocks < 64 && rng.Bool(0.45) {
			blocks *= 2
		}
		t.Ops = append(t.Ops, spc.Op{
			ASU:   rng.Intn(asus),
			LBA:   int64(zip.Next()) * 8, // 8 blocks per hot-set slot
			Bytes: blocks * 512,
			Write: rng.Bool(writeFraction),
			Time:  now,
		})
	}
	sort.SliceStable(t.Ops, func(i, j int) bool { return t.Ops[i].Time < t.Ops[j].Time })
	return t
}

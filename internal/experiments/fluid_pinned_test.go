package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"atlahs/internal/workload/hpcapps"
	"atlahs/sim"
)

// TestRunFluidPinned holds RunFluid to what it measured at commit 636aba8
// on the benchmark's HPC accuracy fixture (64-rank LULESH, 3 steps, seed
// 1, through the mpi frontend, on a 16-hosts-per-ToR fat tree): the
// runtime and the SHA-256 of every rank's end time, to the picosecond.
// Every err_vs_fluid_pct reading divides by this run.
func TestRunFluidPinned(t *testing.T) {
	tr, err := hpcapps.Generate(hpcapps.Config{App: hpcapps.LULESH, Ranks: 64, Steps: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := tr.WriteTo(&raw); err != nil {
		t.Fatal(err)
	}
	sched, err := sim.ConvertTrace(raw.Bytes(), "mpi", nil)
	if err != nil {
		t.Fatal(err)
	}
	dom := HPCDomain()
	tp, err := FatTree(sched.NumRanks(), 16, 1, dom)
	if err != nil {
		t.Fatal(err)
	}
	runtime, rankEnd, err := RunFluid(sched, tp, 1, dom)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	for _, at := range rankEnd {
		binary.LittleEndian.PutUint64(b[:], uint64(at))
		h.Write(b[:])
	}
	const wantRuntime, wantRankEnd = 13327496726, "c6d2f82aded2f4f801427f272348fccc10fa3a18d647bc322601ffbc0b823b8a"
	if got := hex.EncodeToString(h.Sum(nil)); runtime != wantRuntime || got != wantRankEnd {
		t.Errorf("fluid run moved: runtime %d, rank ends %s; want %d, %s", runtime, got, wantRuntime, wantRankEnd)
	}
}

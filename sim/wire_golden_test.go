package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"atlahs/internal/goal"
	"atlahs/internal/workload/hpcapps"
	"atlahs/internal/workload/llm"
	"atlahs/internal/workload/oltp"
)

// TestConvertedSchedulesEncodeAsBefore pins the binary GOAL encoding of
// the three schedules the repo benchmark converts (bench/replay.go, full
// scale, seed 1) to SHA-256 digests recorded at commit 65f5b2e, the last
// one with per-op [][]int32 dependency lists. The encoding writes every
// op's dependencies in list order, so the digests move if a builder or
// decoder change reorders, drops or duplicates a single edge — which is
// also what would move every spec fingerprint and goal_bytes_per_op.
func TestConvertedSchedulesEncodeAsBefore(t *testing.T) {
	raw := func(w io.WriterTo) []byte {
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	rep, err := llm.Generate(llm.Config{Model: llm.Llama7B(), Par: llm.Parallelism{TP: 2, PP: 2, DP: 8, EP: 1, GlobalBatch: 32}, Scale: 1e-3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := hpcapps.Generate(hpcapps.Config{App: hpcapps.LULESH, Ranks: 128, Steps: 9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, frontend string
		raw            []byte
		cfg            any
		size           int
		sha256         string
	}{
		{"llm", "nsys", raw(rep), NsysConfig{GPUsPerNode: 2},
			404564, "e69645122b4f182cc2ff3b8828e1b7c76e2891e4b38b30e11086937b434be33e"},
		{"hpcapps", "mpi", raw(tr), nil,
			1110921, "cb99ab2fae34855e01efa1d7197cf58adac7eeec86a7593b67769731892086a2"},
		{"oltp", "spc", raw(oltp.GenerateFinancial(oltp.FinancialConfig{Ops: 3400, Seed: 1})), nil,
			638760, "1b1cec590e4ca3a0246b34a0aea4c033f7333cb02e06cf8f60992f55bc40e3d8"},
	} {
		s, err := ConvertTrace(c.raw, c.frontend, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var bin bytes.Buffer
		if err := goal.WriteBinary(&bin, s); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(bin.Bytes())
		if got := hex.EncodeToString(sum[:]); bin.Len() != c.size || got != c.sha256 {
			t.Errorf("%s via %s: %d bytes, sha256 %s; recorded %d bytes, %s", c.name, c.frontend, bin.Len(), got, c.size, c.sha256)
		}
	}
}

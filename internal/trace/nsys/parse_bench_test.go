package nsys_test

import (
	"bytes"
	"testing"

	"atlahs/internal/trace/nsys"
	"atlahs/internal/workload/llm"
)

// BenchmarkParseBytes parses the Llama-7B trace the repo benchmark's
// ai-replay-lgs workload replays (TP 2, PP 2, DP 8, scale 1e-3, seed 1).
func BenchmarkParseBytes(b *testing.B) {
	rep, err := llm.Generate(llm.Config{Model: llm.Llama7B(), Par: llm.Parallelism{TP: 2, PP: 2, DP: 8, EP: 1, GlobalBatch: 32}, Scale: 1e-3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rep.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := nsys.ParseBytes(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

package oltp

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"atlahs/internal/trace/spc"
)

func TestFinancialProfile(t *testing.T) {
	tr := GenerateFinancial(FinancialConfig{Ops: 20000, Seed: 7})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	st := tr.ComputeStats()
	if st.Ops != 20000 {
		t.Fatalf("ops=%d", st.Ops)
	}
	// write-heavy ~77%
	if math.Abs(st.WriteRatio-0.77) > 0.03 {
		t.Fatalf("write ratio %.3f, want ~0.77", st.WriteRatio)
	}
	// small-block dominated: mean transfer around 1-2 KB
	if st.MeanBytes < 512 || st.MeanBytes > 4096 {
		t.Fatalf("mean bytes %.0f outside OLTP profile", st.MeanBytes)
	}
	// sizes are 512-byte multiples
	for _, op := range tr.Ops[:100] {
		if op.Bytes%512 != 0 {
			t.Fatalf("size %d not a 512 multiple", op.Bytes)
		}
	}
	// skewed reuse: some LBA appears many times
	counts := map[int64]int{}
	for _, op := range tr.Ops {
		counts[op.LBA]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 50 {
		t.Fatalf("hot block reused only %d times; distribution not skewed", max)
	}
}

func TestFinancialDeterminism(t *testing.T) {
	a := GenerateFinancial(FinancialConfig{Ops: 1000, Seed: 5})
	b := GenerateFinancial(FinancialConfig{Ops: 1000, Seed: 5})
	if !reflect.DeepEqual(a.Ops, b.Ops) {
		t.Fatal("generator not deterministic")
	}
	c := GenerateFinancial(FinancialConfig{Ops: 1000, Seed: 6})
	if reflect.DeepEqual(a.Ops, c.Ops) {
		t.Fatal("different seeds produced identical traces")
	}
}

// Property: generated traces always validate and round trip through the
// SPC codec.
func TestFinancialRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		tr := GenerateFinancial(FinancialConfig{Ops: int(n%500) + 1, Seed: seed})
		if tr.Validate() != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := spc.ParseBytes(buf.Bytes())
		if err != nil {
			return false
		}
		if len(got.Ops) != len(tr.Ops) {
			return false
		}
		for i := range got.Ops {
			a, b := tr.Ops[i], got.Ops[i]
			if a.ASU != b.ASU || a.LBA != b.LBA || a.Bytes != b.Bytes || a.Write != b.Write {
				return false
			}
			if math.Abs(a.Time-b.Time) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

package results

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// testModel returns a small but fully-populated valid model.
func testModel() *WorkloadModel {
	return &WorkloadModel{
		Comment:     "test",
		SourceRanks: 8,
		SourceOps:   120,
		DepthMean:   3.5,
		DepthMax:    5,
		Phases:      3,
		Calc: Dist{Count: 24, Mean: 1000, Std: 0, Min: 1000, Max: 1000,
			Hist: []Bucket{{Lo: 1000, Hi: 1000, N: 24}}},
		CalcNsPerRank: Dist{Count: 8, Mean: 3000, Std: 0, Min: 3000, Max: 3000,
			Hist: []Bucket{{Lo: 3000, Hi: 3000, N: 8}}},
		SendsPerRank: Dist{Count: 8, Mean: 6, Std: 0, Min: 6, Max: 6,
			Hist: []Bucket{{Lo: 6, Hi: 6, N: 8}}},
		Sizes: Dist{Count: 48, Mean: 4096, Std: 0, Min: 4096, Max: 4096,
			Hist: []Bucket{{Lo: 4096, Hi: 4096, N: 48}}},
		Classes: []TrafficClass{{
			Count: 48,
			Sizes: Dist{Count: 48, Mean: 4096, Std: 0, Min: 4096, Max: 4096,
				Hist: []Bucket{{Lo: 4096, Hi: 4096, N: 48}}},
			Offsets: func() []int64 {
				o := make([]int64, ModelOffsetBins)
				o[4] = 48
				return o
			}(),
		}},
		CalcCommRatio: 0.12,
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	m := testModel()
	var buf bytes.Buffer
	if err := EncodeModelJSON(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schema": "atlahs.model/v1"`) {
		t.Fatalf("encoding lacks the schema field:\n%s", buf.String())
	}
	got, err := DecodeModelJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip changed the model:\n%+v\nvs\n%+v", m, got)
	}
	var again bytes.Buffer
	if err := EncodeModelJSON(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("encoding is not canonical")
	}
}

func TestModelValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*WorkloadModel)
		want   string
	}{
		{"no ranks", func(m *WorkloadModel) { m.SourceRanks = 0 }, "SourceRanks"},
		{"no ops", func(m *WorkloadModel) { m.SourceOps = 0 }, "SourceOps"},
		{"no phases", func(m *WorkloadModel) { m.Phases = 0 }, "Phases"},
		{"negative ratio", func(m *WorkloadModel) { m.CalcCommRatio = -1 }, "CalcCommRatio"},
		{"hist sum", func(m *WorkloadModel) { m.Sizes.Hist[0].N = 47 }, "sums to"},
		{"bucket bounds", func(m *WorkloadModel) { m.Sizes.Hist[0].Lo = 5000 }, "lo"},
		{"empty dist with hist", func(m *WorkloadModel) {
			m.Calc = Dist{Hist: []Bucket{{Lo: 1, Hi: 1, N: 1}}}
		}, "empty dist"},
		{"class count", func(m *WorkloadModel) { m.Classes[0].Count = 40 }, "class"},
		{"offset bins", func(m *WorkloadModel) { m.Classes[0].Offsets = m.Classes[0].Offsets[:8] }, "offset bins"},
		{"offset sum", func(m *WorkloadModel) { m.Classes[0].Offsets[4] = 10 }, "offset bins sum"},
		{"uncovered sends", func(m *WorkloadModel) { m.Classes = nil }, "classes cover"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := testModel()
			tc.mutate(m)
			err := m.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid model")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			var buf bytes.Buffer
			if encErr := EncodeModelJSON(&buf, m); encErr == nil {
				t.Fatal("EncodeModelJSON accepted an invalid model")
			}
		})
	}
}

func TestDecodeModelRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"bad schema", `{"schema":"atlahs.model/v2","source_ranks":1}`, "unknown model schema"},
		{"unknown field", `{"schema":"atlahs.model/v1","bogus":1}`, "bogus"},
		{"trailing data", "{}", "trailing data"},
		{"trailing brace", "}", "trailing data"},
		{"trailing bracket", "]", "trailing data"},
		{"not json", `nope`, "decoding model"},
	}
	var buf bytes.Buffer
	if err := EncodeModelJSON(&buf, testModel()); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 4; i++ {
		cases[i].in = buf.String() + cases[i].in
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeModelJSON(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("DecodeModelJSON accepted invalid input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

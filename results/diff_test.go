package results

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func fp(v float64) *float64 { return &v }

// testDiff builds a representative diff exercising every wire feature:
// keyed rows, unmatched rows on both sides, string and numeric deltas,
// one-sided columns and derived values, and changed params.
func testDiff() *SweepDiff {
	return &SweepDiff{
		A:            "fig8",
		B:            "fig8",
		Keys:         []Column{{Name: "configuration", Kind: String}, {Name: "ranks", Kind: Int}},
		RowsA:        4,
		RowsB:        4,
		Matched:      3,
		Changed:      2,
		ColumnsOnlyA: []string{"old_col"},
		ColumnsOnlyB: []string{"new_col"},
		RowsOnlyA:    []RowRef{{Row: 3, Key: map[string]any{"configuration": "gone", "ranks": int64(8)}}},
		RowsOnlyB:    []RowRef{{Row: 3, Key: map[string]any{"configuration": "fresh", "ranks": int64(16)}}},
		Rows: []RowDiff{
			{
				Row: 0,
				Key: map[string]any{"configuration": "llama7b", "ranks": int64(8)},
				Fields: []FieldDelta{
					{Column: "measured", Kind: Duration, Unit: "ps", A: int64(100), B: int64(120), Abs: fp(20), Rel: fp(0.2)},
					{Column: "err_pct", Kind: Float, A: 0.0, B: 1.5, Abs: fp(1.5)},
					{Column: "engine", Kind: String, A: "serial", B: "parallel"},
				},
			},
			{
				Row: 2,
				Key: map[string]any{"configuration": "gpt3", "ranks": int64(8)},
				Fields: []FieldDelta{
					{Column: "measured", Kind: Duration, Unit: "ps", A: int64(400), B: int64(300), Abs: fp(-100), Rel: fp(-0.25)},
				},
			},
		},
		Params:       []ParamDelta{{Key: "mode", A: "quick", B: "full"}},
		Derived:      []ScalarDelta{{Key: "runtime_ps", A: 100, B: 120, Abs: 20, Rel: fp(0.2)}},
		DerivedOnlyA: []string{"legacy_metric"},
		DerivedOnlyB: []string{"fresh_metric"},
	}
}

// TestDiffJSONRoundTrip: the encoder writes testDiff as the document in
// testdata/diff.json — cells kind by kind as the sweep codec writes them,
// no relative delta on a zero baseline.
func TestDiffJSONRoundTrip(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "diff.json"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeDiffJSON(&buf, testDiff()); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoding differs from testdata/diff.json:\n%s", buf.Bytes())
	}
}

// TestDiffEmptyRoundTrip: identical sweeps diff to a document with no
// rows, which still validates and encodes with every list omitted.
func TestDiffEmptyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeDiffJSON(&buf, &SweepDiff{A: "a1", B: "b1", RowsA: 2, RowsB: 2, Matched: 2}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	const want = `{
  "schema": "atlahs.diff/v1",
  "a": "a1",
  "b": "b1",
  "rows_a": 2,
  "rows_b": 2,
  "matched": 2,
  "changed": 0
}
`
	if got := buf.String(); got != want {
		t.Errorf("empty diff encodes as\n%s\nwant\n%s", got, want)
	}
}

func TestDiffValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*SweepDiff)
	}{
		{"bad sweep name", func(d *SweepDiff) { d.A = "Not Snake" }},
		{"matched exceeds rows", func(d *SweepDiff) { d.Matched = 99 }},
		{"changed disagrees with rows", func(d *SweepDiff) { d.Changed = 7 }},
		{"unmatched lists disagree", func(d *SweepDiff) { d.RowsOnlyA = nil }},
		{"empty field list", func(d *SweepDiff) { d.Rows[1].Fields = nil }},
		{"equal cells recorded", func(d *SweepDiff) {
			d.Rows[0].Fields[0].B = int64(100)
			d.Rows[0].Fields[0].Abs = fp(0)
		}},
		{"abs disagrees with cells", func(d *SweepDiff) { d.Rows[0].Fields[0].Abs = fp(1) }},
		{"rel missing on non-zero baseline", func(d *SweepDiff) { d.Rows[0].Fields[0].Rel = nil }},
		{"rel present on zero baseline", func(d *SweepDiff) { d.Rows[0].Fields[1].Rel = fp(1) }},
		{"string delta with numeric deltas", func(d *SweepDiff) { d.Rows[0].Fields[2].Abs = fp(1) }},
		{"key cell of wrong type", func(d *SweepDiff) { d.Rows[0].Key["ranks"] = "eight" }},
		{"key cell missing", func(d *SweepDiff) { delete(d.Rows[0].Key, "ranks") }},
		{"derived rel on zero baseline", func(d *SweepDiff) {
			d.Derived[0].A = 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := testDiff()
			tc.mutate(d)
			if err := d.Validate(); err == nil {
				t.Error("mutated diff must fail validation")
			}
		})
	}
	if err := testDiff().Validate(); err != nil {
		t.Errorf("unmutated diff must validate: %v", err)
	}
}

func TestDiffPositionalKeysRejectKeyCells(t *testing.T) {
	d := &SweepDiff{
		A: "a1", B: "b1", RowsA: 1, RowsB: 1, Matched: 1, Changed: 1,
		Rows: []RowDiff{{
			Row: 0,
			Key: map[string]any{"stray": "cell"},
			Fields: []FieldDelta{
				{Column: "v", Kind: Int, A: int64(1), B: int64(2), Abs: fp(1), Rel: fp(1)},
			},
		}},
	}
	if err := d.Validate(); err == nil {
		t.Error("key cells under positional matching must fail validation")
	}
	d.Rows[0].Key = nil
	if err := d.Validate(); err != nil {
		t.Errorf("positional diff must validate: %v", err)
	}
}

// TestDiffRefusesWhatSweepsRefuse: a diff carries cells, params and units
// from sweeps, so its encoder refuses what a sweep refuses — a multi-line
// string cell in a delta or a key, a multi-line param value, and a unit
// with a reserved character.
func TestDiffRefusesWhatSweepsRefuse(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*SweepDiff)
	}{
		{"multi-line field cell", func(d *SweepDiff) { d.Rows[0].Fields[2].B = "para\nllel" }},
		{"multi-line key cell", func(d *SweepDiff) { d.Rows[0].Key["configuration"] = "llama\r7b" }},
		{"multi-line param value", func(d *SweepDiff) { d.Params[0].B = "fu\nll" }},
		{"unit with a comma", func(d *SweepDiff) { d.Rows[0].Fields[0].Unit = "p,s" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := testDiff()
			tc.mutate(d)
			if err := EncodeDiffJSON(io.Discard, d); err == nil {
				t.Error("encoder accepted the mutated diff")
			}
		})
	}
}

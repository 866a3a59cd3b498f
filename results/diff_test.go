package results

import (
	"bytes"
	"io"
	"reflect"
	"strings"
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

func TestDiffJSONRoundTrip(t *testing.T) {
	d := testDiff()
	var buf bytes.Buffer
	if err := EncodeDiffJSON(&buf, d); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeDiffJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("round trip diverged:\ngot  %#v\nwant %#v", got, d)
	}
	// The encoding is deterministic: encoding again yields the same bytes.
	var again bytes.Buffer
	if err := EncodeDiffJSON(&again, got); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Errorf("re-encoded bytes differ from the original encoding")
	}
}

func TestDiffEmptyRoundTrip(t *testing.T) {
	// Identical sweeps diff to a document with no rows; it still round
	// trips and validates.
	d := &SweepDiff{A: "a1", B: "b1", RowsA: 2, RowsB: 2, Matched: 2}
	var buf bytes.Buffer
	if err := EncodeDiffJSON(&buf, d); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeDiffJSON(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("round trip diverged:\ngot  %#v\nwant %#v", got, d)
	}
}

func TestDiffSchemaRejected(t *testing.T) {
	if _, err := DecodeDiffJSON(strings.NewReader(`{"schema":"atlahs.diff/v2","a":"x","b":"y"}`)); err == nil {
		t.Error("unknown diff schema must be rejected")
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
// from sweeps, so it refuses what a sweep refuses — a multi-line string
// cell in a delta or a key, a multi-line param value, and a unit with a
// reserved character — on the way out and, hand-edited into the JSON, on
// the way in.
func TestDiffRefusesWhatSweepsRefuse(t *testing.T) {
	var wire bytes.Buffer
	if err := EncodeDiffJSON(&wire, testDiff()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		mutate   func(*SweepDiff)
		old, new string // the same mutation, made to the encoded JSON
	}{
		{"multi-line field cell", func(d *SweepDiff) { d.Rows[0].Fields[2].B = "para\nllel" }, `"parallel"`, `"para\nllel"`},
		{"multi-line key cell", func(d *SweepDiff) { d.Rows[0].Key["configuration"] = "llama\r7b" }, `"llama7b"`, `"llama\r7b"`},
		{"multi-line param value", func(d *SweepDiff) { d.Params[0].B = "fu\nll" }, `"full"`, `"fu\nll"`},
		{"unit with a comma", func(d *SweepDiff) { d.Rows[0].Fields[0].Unit = "p,s" }, `"ps"`, `"p,s"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := testDiff()
			tc.mutate(d)
			if err := EncodeDiffJSON(io.Discard, d); err == nil {
				t.Error("encoder accepted the mutated diff")
			}
			edited := bytes.Replace(wire.Bytes(), []byte(tc.old), []byte(tc.new), 1)
			if bytes.Equal(edited, wire.Bytes()) {
				t.Fatalf("%s does not occur in the encoded diff", tc.old)
			}
			if _, err := DecodeDiffJSON(bytes.NewReader(edited)); err == nil {
				t.Errorf("decoder accepted the edited document:\n%s", edited)
			}
		})
	}
}

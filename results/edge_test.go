package results

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// These tests pin the codec edge cases the diff engine leans on: every
// decoded sweep holds finite numeric cells, rows that exactly match their
// column schema, and empty sweeps round-trip through JSON and export as
// CSV — so analyze.Diff never has to re-check what the codecs guarantee.

// nonFinite builds a sweep carrying one non-finite float cell.
func nonFinite(v float64) *Sweep {
	s := NewSweep("edge", "edge case", "test")
	s.AddColumn("v", Float, "")
	s.Rows = append(s.Rows, Record{v}) // bypass AddRow: inject the raw cell
	return s
}

func TestEncodeRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := nonFinite(v)
		if err := EncodeJSON(&bytes.Buffer{}, s); err == nil {
			t.Errorf("EncodeJSON must reject %v cells", v)
		}
		if err := EncodeCSV(&bytes.Buffer{}, s); err == nil {
			t.Errorf("EncodeCSV must reject %v cells", v)
		}
	}
	s := NewSweep("edge", "edge case", "test")
	s.AddColumn("v", Float, "")
	s.MustAddRow(1.0)
	s.SetDerived("agg", math.NaN())
	if err := EncodeJSON(&bytes.Buffer{}, s); err == nil {
		t.Error("EncodeJSON must reject NaN derived values")
	}
}

func TestDecodeRejectsNonFinite(t *testing.T) {
	// JSON has no NaN/Inf literal; the closest attack is a number too
	// large for float64, which must fail the cell conversion rather than
	// silently becoming +Inf.
	huge := `{"schema":"` + Schema + `","name":"edge","columns":[{"name":"v","kind":"float"}],"rows":[{"v":1e999}]}`
	if _, err := DecodeJSON(strings.NewReader(huge)); err == nil {
		t.Error("DecodeJSON must reject out-of-range float cells")
	}
	hugeDuration := `{"schema":"` + Schema + `","name":"edge","columns":[{"name":"v","kind":"duration"}],"rows":[{"v":9223372036854775808}]}`
	if _, err := DecodeJSON(strings.NewReader(hugeDuration)); err == nil {
		t.Error("DecodeJSON must reject duration cells past int64 range")
	}
}

func TestEmptySweepRoundTrips(t *testing.T) {
	// A sweep with columns but no rows is legal — a diff of two such
	// sweeps is empty, not an error.
	s := NewSweep("empty", "no rows", "test")
	s.AddColumn("v", Int, "")
	var js bytes.Buffer
	if err := EncodeJSON(&js, s); err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}
	if err := EncodeCSV(&bytes.Buffer{}, s); err != nil {
		t.Fatalf("EncodeCSV: %v", err)
	}
	got, err := DecodeJSON(&js)
	if err != nil {
		t.Fatalf("DecodeJSON: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("empty sweep round trip diverged:\ngot  %#v\nwant %#v", got, s)
	}
	// No columns at all is not: the schema requires at least one.
	bare := NewSweep("bare", "no columns", "test")
	if err := EncodeJSON(&bytes.Buffer{}, bare); err == nil {
		t.Error("EncodeJSON must reject sweeps with no columns")
	}
}

func TestDecodeRejectsMismatchedColumns(t *testing.T) {
	header := `{"schema":"` + Schema + `","name":"edge","columns":[{"name":"a","kind":"int"},{"name":"b","kind":"int"}],"rows":[`
	cases := map[string]string{
		"row misses a column":     header + `{"a":1}]}`,
		"row adds a column":       header + `{"a":1,"b":2,"c":3}]}`,
		"row renames a column":    header + `{"a":1,"c":2}]}`,
		"cell of the wrong kind":  header + `{"a":1,"b":"two"}]}`,
		"duplicate column schema": `{"schema":"` + Schema + `","name":"edge","columns":[{"name":"a","kind":"int"},{"name":"a","kind":"int"}],"rows":[{"a":1}]}`,
	}
	for name, doc := range cases {
		if _, err := DecodeJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("DecodeJSON must reject: %s", name)
		}
	}
}

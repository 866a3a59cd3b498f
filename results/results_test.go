package results

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sample builds a sweep exercising every column kind and metadata field.
func sample() *Sweep {
	s := NewSweep("fig_test", "Fig T — unit-test sweep, with commas, \"quotes\" and dashes", "quick")
	s.AddColumn("label", String, "").
		AddColumn("measured", Duration, "ps").
		AddColumn("count", Int, "").
		AddColumn("err_pct", Float, "%")
	s.MustAddRow("plain", int64(254663000000), int64(42), 1.5)
	s.MustAddRow("comma, quote \" cell", int64(0), int64(-7), -0.25)
	// A cell starting with "# " must not be mistaken for CSV preamble.
	s.MustAddRow("# note looks-like-preamble", int64(2), int64(3), 0.5)
	s.MustAddRow("third", int64(1), int64(1<<62), 1e-9)
	s.SetParam("workload_ops", "400")
	s.SetParam("layout", "directdrive{hosts=4} with spaces")
	s.SetDerived("max_abs_err_pct", 3.25)
	s.SetDerived("tiny", 1.0/3.0)
	s.Note("paper: first commentary line", "paper: second line")
	return s
}

func TestAddRowCoercesCellTypes(t *testing.T) {
	s := NewSweep("coerce", "", "quick")
	s.AddColumn("label", String, "").
		AddColumn("dur", Duration, "ps").
		AddColumn("n", Int, "").
		AddColumn("x", Float, "")
	// time.Duration satisfies the Duration column via reflection; int and
	// uint64 satisfy Int; int satisfies Float.
	if err := s.AddRow("ok", 5*time.Millisecond, uint64(9), 7); err != nil {
		t.Fatal(err)
	}
	want := Record{"ok", int64(5_000_000), int64(9), float64(7)}
	if !reflect.DeepEqual(s.Rows[0], want) {
		t.Fatalf("row = %#v, want %#v", s.Rows[0], want)
	}
	if err := s.AddRow("bad", "not-a-duration", 1, 1.0); err == nil {
		t.Fatal("expected type-mismatch error")
	}
	if err := s.AddRow("short", int64(1)); err == nil {
		t.Fatal("expected cell-count error")
	}
	if err := s.AddRow("over", int64(1), uint64(math.MaxUint64), 1.0); err == nil {
		t.Fatal("expected uint64 overflow error")
	}
}

func TestValidateRejectsBadSweeps(t *testing.T) {
	cases := map[string]func(*Sweep){
		"empty name":        func(s *Sweep) { s.Name = "" },
		"uppercase name":    func(s *Sweep) { s.Name = "Fig8" },
		"multiline title":   func(s *Sweep) { s.Title = "a\nb" },
		"no columns":        func(s *Sweep) { s.Columns = nil; s.Rows = nil },
		"dup column":        func(s *Sweep) { s.Columns[1].Name = s.Columns[0].Name },
		"bad kind":          func(s *Sweep) { s.Columns[0].Kind = "decimal" },
		"unit with colon":   func(s *Sweep) { s.Columns[1].Unit = "p:s" },
		"bad param key":     func(s *Sweep) { s.Params["Bad Key"] = "v" },
		"nan derived":       func(s *Sweep) { s.Derived["x"] = math.NaN() },
		"inf cell":          func(s *Sweep) { s.Rows[0][3] = math.Inf(1) },
		"wrong cell type":   func(s *Sweep) { s.Rows[0][2] = "42" },
		"ragged row":        func(s *Sweep) { s.Rows[0] = s.Rows[0][:2] },
		"multiline cell":    func(s *Sweep) { s.Rows[0][0] = "a\nb" },
		"multiline note":    func(s *Sweep) { s.Notes[0] = "a\r\nb" },
		"bad derived key":   func(s *Sweep) { s.Derived["9lives"] = 1 },
		"uppercase column":  func(s *Sweep) { s.Columns[0].Name = "Label" },
		"int cell as int32": func(s *Sweep) { s.Rows[0][2] = int32(1) },
	}
	for name, mutate := range cases {
		s := sample()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the corrupted sweep", name)
		}
	}
	if err := sample().Validate(); err != nil {
		t.Fatalf("pristine sample rejected: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := sample()
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("JSON round trip diverged:\ngot  %#v\nwant %#v", got, s)
	}
}

func TestRoundTripWithoutOptionalFields(t *testing.T) {
	s := NewSweep("bare", "", "")
	s.AddColumn("n", Int, "")
	s.MustAddRow(int64(1))
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("JSON round trip diverged: %#v vs %#v", got, s)
	}
}

func TestDecodeJSONRejectsMalformedInput(t *testing.T) {
	var good bytes.Buffer
	if err := EncodeJSON(&good, sample()); err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"wrong schema":  strings.Replace(good.String(), Schema, "atlahs.results/v0", 1),
		"missing field": strings.Replace(good.String(), `"count": 42`, `"other": 42`, 1),
		"extra field":   strings.Replace(good.String(), `"count": 42,`, `"count": 42, "extra": 1,`, 1),
		"wrong type":    strings.Replace(good.String(), `"count": 42`, `"count": "42"`, 1),
		"float as int":  strings.Replace(good.String(), `"count": 42`, `"count": 42.5`, 1),
		"not json":      "},{",
	}
	for name, in := range cases {
		if _, err := DecodeJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: DecodeJSON accepted malformed input", name)
		}
	}
}

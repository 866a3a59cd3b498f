package analyze

import (
	"strings"
	"testing"

	"atlahs/results"
)

// pairSweep builds a small keyed sweep for diff tests.
func pairSweep(t testing.TB, name string, measured []int64) *results.Sweep {
	t.Helper()
	s := results.NewSweep(name, "Pair", "test")
	s.AddColumn("configuration", results.String, "")
	s.AddColumn("measured", results.Duration, "ps")
	s.AddColumn("compute_pct", results.Float, "%")
	configs := []string{"cfg_a", "cfg_b", "cfg_c"}
	for i, m := range measured {
		s.MustAddRow(configs[i], m, float64(10*(i+1)))
	}
	s.SetParam("mode", "quick")
	s.SetDerived("total_ps", float64(measured[0]+measured[1]+measured[2]))
	return s
}

// floatSweep builds a one-row sweep whose float cell and derived value
// are both v.
func floatSweep(t testing.TB, name string, v float64) *results.Sweep {
	t.Helper()
	s := results.NewSweep(name, "Float", "test")
	s.AddColumn("ratio", results.Float, "")
	s.MustAddRow(v)
	s.SetDerived("ratio_sum", v)
	return s
}

// nonFiniteMoves are finite cell moves whose delta overflows float64:
// a relative delta from a baseline near zero, and an absolute one across
// the whole float range.
var nonFiniteMoves = []struct {
	a, b float64
	want string
}{
	{1e-310, 1, "1e-310 -> 1: relative delta is +Inf"},
	{5e-324, 2, "5e-324 -> 2: relative delta is +Inf"},
	{-1.7e308, 1.7e308, "-1.7e+308 -> 1.7e+308: absolute delta is +Inf"},
}

// TestDiffRefusesNonFiniteDeltas: a move whose delta overflows is an
// error naming the column or derived key and both values, never a diff
// that the atlahs.diff/v1 encoder would refuse.
func TestDiffRefusesNonFiniteDeltas(t *testing.T) {
	for _, c := range nonFiniteMoves {
		a, b := floatSweep(t, "a", c.a), floatSweep(t, "b", c.b)
		_, err := Diff(a, b, DiffOptions{})
		if want := `analyze: row 0: column "ratio" moves ` + c.want; err == nil || err.Error() != want {
			t.Errorf("%v -> %v: err = %v, want %q", c.a, c.b, err, want)
		}
		// With equal rows, only the derived value moves.
		b.Rows[0][0] = c.a
		_, err = Diff(a, b, DiffOptions{})
		if want := `analyze: derived "ratio_sum" moves ` + c.want; err == nil || err.Error() != want {
			t.Errorf("derived %v -> %v: err = %v, want %q", c.a, c.b, err, want)
		}
	}
}

func TestDiffIdenticalSweeps(t *testing.T) {
	a := pairSweep(t, "sweep", []int64{100, 200, 300})
	b := pairSweep(t, "sweep", []int64{100, 200, 300})
	for _, keys := range [][]string{nil, {"configuration"}} {
		d, err := Diff(a, b, DiffOptions{Keys: keys})
		if err != nil {
			t.Fatalf("Diff(keys=%v): %v", keys, err)
		}
		if d.Changed != 0 || len(d.Rows) != 0 || len(d.Params) != 0 || len(d.Derived) != 0 {
			t.Errorf("keys=%v: identical sweeps produced changes: %+v", keys, d)
		}
		if d.Matched != 3 || len(d.RowsOnlyA) != 0 || len(d.RowsOnlyB) != 0 {
			t.Errorf("keys=%v: Matched=%d RowsOnlyA=%d RowsOnlyB=%d, want 3/0/0",
				keys, d.Matched, len(d.RowsOnlyA), len(d.RowsOnlyB))
		}
		if err := d.Validate(); err != nil {
			t.Errorf("keys=%v: diff does not validate: %v", keys, err)
		}
	}
}

func TestDiffKeyedChanges(t *testing.T) {
	a := pairSweep(t, "a", []int64{100, 200, 300})
	b := pairSweep(t, "b", []int64{100, 240, 300}) // cfg_b regresses 20%
	b.SetParam("mode", "full")
	d, err := Diff(a, b, DiffOptions{Keys: []string{"configuration"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("diff does not validate: %v", err)
	}
	if d.Changed != 1 || len(d.Rows) != 1 {
		t.Fatalf("Changed=%d rows=%d, want 1/1", d.Changed, len(d.Rows))
	}
	row := d.Rows[0]
	if got := row.Key["configuration"]; got != "cfg_b" {
		t.Errorf("changed row key = %v, want cfg_b", got)
	}
	if len(row.Fields) != 1 {
		t.Fatalf("fields = %+v, want exactly one (measured)", row.Fields)
	}
	f := row.Fields[0]
	if f.Column != "measured" || f.A != int64(200) || f.B != int64(240) {
		t.Errorf("field = %+v, want measured 200 -> 240", f)
	}
	if f.Abs == nil || *f.Abs != 40 || f.Rel == nil || *f.Rel != 0.2 {
		t.Errorf("deltas = abs %v rel %v, want 40 and 0.2", f.Abs, f.Rel)
	}
	if len(d.Params) != 1 || d.Params[0].Key != "mode" || d.Params[0].B != "full" {
		t.Errorf("params = %+v, want mode quick -> full", d.Params)
	}
	if len(d.Derived) != 1 || d.Derived[0].Key != "total_ps" || d.Derived[0].Abs != 40 {
		t.Errorf("derived = %+v, want total_ps +40", d.Derived)
	}
}

func TestDiffUnmatchedRowsAndColumns(t *testing.T) {
	a := results.NewSweep("a", "A", "test")
	a.AddColumn("configuration", results.String, "")
	a.AddColumn("measured", results.Int, "ps")
	a.AddColumn("only_a", results.Float, "")
	a.MustAddRow("one", int64(1), 1.0)
	a.MustAddRow("two", int64(2), 2.0)

	b := results.NewSweep("b", "B", "test")
	b.AddColumn("configuration", results.String, "")
	b.AddColumn("measured", results.Int, "ps")
	b.AddColumn("only_b", results.Float, "")
	b.MustAddRow("two", int64(2), 2.0)
	b.MustAddRow("three", int64(3), 3.0)

	d, err := Diff(a, b, DiffOptions{Keys: []string{"configuration"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("diff does not validate: %v", err)
	}
	if d.Matched != 1 || d.Changed != 0 {
		t.Errorf("Matched=%d Changed=%d, want 1/0", d.Matched, d.Changed)
	}
	if len(d.RowsOnlyA) != 1 || d.RowsOnlyA[0].Key["configuration"] != "one" {
		t.Errorf("RowsOnlyA = %+v, want the 'one' row", d.RowsOnlyA)
	}
	if len(d.RowsOnlyB) != 1 || d.RowsOnlyB[0].Key["configuration"] != "three" {
		t.Errorf("RowsOnlyB = %+v, want the 'three' row", d.RowsOnlyB)
	}
	if len(d.ColumnsOnlyA) != 1 || d.ColumnsOnlyA[0] != "only_a" {
		t.Errorf("ColumnsOnlyA = %v, want [only_a]", d.ColumnsOnlyA)
	}
	if len(d.ColumnsOnlyB) != 1 || d.ColumnsOnlyB[0] != "only_b" {
		t.Errorf("ColumnsOnlyB = %v, want [only_b]", d.ColumnsOnlyB)
	}
}

func TestDiffPositionalLengthMismatch(t *testing.T) {
	a := pairSweep(t, "a", []int64{100, 200, 300})
	b := results.NewSweep("b", "B", "test")
	b.AddColumn("configuration", results.String, "")
	b.AddColumn("measured", results.Duration, "ps")
	b.AddColumn("compute_pct", results.Float, "%")
	b.MustAddRow("cfg_a", int64(100), 10.0)

	d, err := Diff(a, b, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("diff does not validate: %v", err)
	}
	if d.Matched != 1 || len(d.RowsOnlyA) != 2 || len(d.RowsOnlyB) != 0 {
		t.Errorf("Matched=%d RowsOnlyA=%d RowsOnlyB=%d, want 1/2/0",
			d.Matched, len(d.RowsOnlyA), len(d.RowsOnlyB))
	}
	if d.RowsOnlyA[0].Key != nil {
		t.Errorf("positional RowRef carries key cells: %+v", d.RowsOnlyA[0])
	}
}

func TestDiffZeroBaselineRelNil(t *testing.T) {
	a := results.NewSweep("a", "A", "test")
	a.AddColumn("v", results.Float, "")
	a.MustAddRow(0.0)
	b := results.NewSweep("b", "B", "test")
	b.AddColumn("v", results.Float, "")
	b.MustAddRow(5.0)

	d, err := Diff(a, b, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := d.Rows[0].Fields[0]
	if f.Rel != nil {
		t.Errorf("Rel = %v for zero baseline, want nil", *f.Rel)
	}
	if f.Abs == nil || *f.Abs != 5 {
		t.Errorf("Abs = %v, want 5", f.Abs)
	}
}

func TestDiffRejectsRetypedColumn(t *testing.T) {
	a := results.NewSweep("a", "A", "test")
	a.AddColumn("v", results.Int, "ps")
	a.MustAddRow(int64(1))
	b := results.NewSweep("b", "B", "test")
	b.AddColumn("v", results.Float, "ps")
	b.MustAddRow(1.0)
	if _, err := Diff(a, b, DiffOptions{}); err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Errorf("retyped column: err = %v, want kind-mismatch error", err)
	}
}

func TestDiffRejectsDuplicateKeys(t *testing.T) {
	a := pairSweep(t, "a", []int64{100, 200, 300})
	b := results.NewSweep("b", "B", "test")
	b.AddColumn("configuration", results.String, "")
	b.AddColumn("measured", results.Duration, "ps")
	b.AddColumn("compute_pct", results.Float, "%")
	b.MustAddRow("cfg_a", int64(1), 1.0)
	b.MustAddRow("cfg_a", int64(2), 2.0)
	if _, err := Diff(a, b, DiffOptions{Keys: []string{"configuration"}}); err == nil || !strings.Contains(err.Error(), "unique") {
		t.Errorf("duplicate keys: err = %v, want uniqueness error", err)
	}
}

func TestDiffRejectsMissingKeyColumn(t *testing.T) {
	a := pairSweep(t, "a", []int64{100, 200, 300})
	b := pairSweep(t, "b", []int64{100, 200, 300})
	if _, err := Diff(a, b, DiffOptions{Keys: []string{"nope"}}); err == nil || !strings.Contains(err.Error(), "key column") {
		t.Errorf("missing key column: err = %v, want key-column error", err)
	}
}

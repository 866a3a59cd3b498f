package results

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// DiffSchema identifies the sweep-comparison document this package
// writes. Like the results schema it is append-only: released field
// names and meanings never change (see the package documentation).
const DiffSchema = "atlahs.diff/v1"

// SweepDiff is the field-by-field comparison of two atlahs.results/v1
// sweeps — the document behind `atlahs-analyze diff -json`, whether the
// sweeps are experiment exports or service run artifacts. It is sparse:
// only changed rows, params and derived values are recorded, so two
// identical sweeps diff to a document with no rows and Changed == 0.
type SweepDiff struct {
	// A and B name the compared sweeps (Sweep.Name), in that order; every
	// delta is B relative to A ("how did B move away from A").
	A string `json:"a"`
	B string `json:"b"`
	// Keys are the columns rows were matched on, carried with their kinds
	// so the export says how to read its key cells. Empty means positional
	// matching: row i of A against row i of B.
	Keys []Column `json:"keys,omitempty"`
	// RowsA and RowsB are the compared sweeps' row counts; Matched is how
	// many rows paired up, and Changed is how many of those differ in at
	// least one shared field (== len(Rows)).
	RowsA   int `json:"rows_a"`
	RowsB   int `json:"rows_b"`
	Matched int `json:"matched"`
	Changed int `json:"changed"`
	// ColumnsOnlyA and ColumnsOnlyB list columns present in only one
	// sweep; their cells are not comparable and appear in no FieldDelta.
	ColumnsOnlyA []string `json:"columns_only_a,omitempty"`
	ColumnsOnlyB []string `json:"columns_only_b,omitempty"`
	// RowsOnlyA and RowsOnlyB reference rows with no partner in the other
	// sweep.
	RowsOnlyA []RowRef `json:"rows_only_a,omitempty"`
	RowsOnlyB []RowRef `json:"rows_only_b,omitempty"`
	// Rows are the matched rows that changed, in A's row order.
	Rows []RowDiff `json:"rows,omitempty"`
	// Params are the experiment-level inputs whose values differ (missing
	// on one side reads as the empty string), sorted by key.
	Params []ParamDelta `json:"params,omitempty"`
	// Derived are the cross-row aggregates present in both sweeps with
	// different values, sorted by key; DerivedOnlyA/B list aggregates
	// present on one side only.
	Derived      []ScalarDelta `json:"derived,omitempty"`
	DerivedOnlyA []string      `json:"derived_only_a,omitempty"`
	DerivedOnlyB []string      `json:"derived_only_b,omitempty"`
}

// RowRef identifies one unmatched row: its index in its own sweep, plus
// its key cells when key columns were used.
type RowRef struct {
	Row int            `json:"row"`
	Key map[string]any `json:"key,omitempty"`
}

// RowDiff is one matched row that changed: its index in sweep A, its key
// cells (nil under positional matching), and one FieldDelta per shared
// field whose cells differ.
type RowDiff struct {
	Row    int            `json:"row"`
	Key    map[string]any `json:"key,omitempty"`
	Fields []FieldDelta   `json:"fields"`
}

// FieldDelta is one changed cell: the column it belongs to, both
// canonical cell values, and — for numeric kinds — the absolute delta
// B-A and the relative delta (B-A)/|A|. Rel is nil when A is zero (the
// relative move is undefined) and for string cells.
type FieldDelta struct {
	Column string   `json:"column"`
	Kind   Kind     `json:"kind"`
	Unit   string   `json:"unit,omitempty"`
	A      any      `json:"a"`
	B      any      `json:"b"`
	Abs    *float64 `json:"abs,omitempty"`
	Rel    *float64 `json:"rel,omitempty"`
}

// ScalarDelta is one changed derived aggregate.
type ScalarDelta struct {
	Key string   `json:"key"`
	A   float64  `json:"a"`
	B   float64  `json:"b"`
	Abs float64  `json:"abs"`
	Rel *float64 `json:"rel,omitempty"`
}

// ParamDelta is one changed experiment-level input; a side that lacks the
// param reads as the empty string.
type ParamDelta struct {
	Key string `json:"key"`
	A   string `json:"a"`
	B   string `json:"b"`
}

// jsonDiff is the wire form of a SweepDiff: the diff's own json tags plus
// the schema discriminator. Cells are encoded exactly like sweep rows —
// strings as JSON strings, int and duration cells as integral numbers,
// floats as finite numbers. The document is a write-only export, like
// CSV: nothing in the toolchain reads it back.
type jsonDiff struct {
	Schema string `json:"schema"`
	SweepDiff
}

// EncodeDiffJSON validates d and writes it as one atlahs.diff/v1 document.
func EncodeDiffJSON(w io.Writer, d *SweepDiff) error {
	if err := d.Validate(); err != nil {
		return err
	}
	return EncodeDoc(w, jsonDiff{Schema: DiffSchema, SweepDiff: *d})
}

// Validate checks the diff against the schema contract: snake_case names,
// valid column kinds, canonical finite cell values, deltas consistent
// with their cells, and bookkeeping counts that add up. The encoder
// validates before it writes.
func (d *SweepDiff) Validate() error {
	for _, name := range []string{d.A, d.B} {
		if !isName(name) {
			return fmt.Errorf("results: diff sweep name %q is not a snake_case identifier", name)
		}
	}
	keyCols := map[string]Column{}
	for _, c := range d.Keys {
		if !isName(c.Name) {
			return fmt.Errorf("results: diff %s vs %s: key column %q is not a snake_case identifier", d.A, d.B, c.Name)
		}
		if !c.Kind.valid() {
			return fmt.Errorf("results: diff %s vs %s: key column %q has unknown kind %q", d.A, d.B, c.Name, c.Kind)
		}
		if err := checkUnit(c); err != nil {
			return fmt.Errorf("results: diff %s vs %s: key %w", d.A, d.B, err)
		}
		if _, dup := keyCols[c.Name]; dup {
			return fmt.Errorf("results: diff %s vs %s: duplicate key column %q", d.A, d.B, c.Name)
		}
		keyCols[c.Name] = c
	}
	if d.RowsA < 0 || d.RowsB < 0 || d.Matched < 0 {
		return fmt.Errorf("results: diff %s vs %s: negative row counts", d.A, d.B)
	}
	if d.Matched > d.RowsA || d.Matched > d.RowsB {
		return fmt.Errorf("results: diff %s vs %s: matched %d exceeds row counts %d/%d", d.A, d.B, d.Matched, d.RowsA, d.RowsB)
	}
	if len(d.RowsOnlyA) != d.RowsA-d.Matched || len(d.RowsOnlyB) != d.RowsB-d.Matched {
		return fmt.Errorf("results: diff %s vs %s: unmatched row lists disagree with counts", d.A, d.B)
	}
	if d.Changed != len(d.Rows) {
		return fmt.Errorf("results: diff %s vs %s: changed %d but %d row diffs", d.A, d.B, d.Changed, len(d.Rows))
	}
	for _, names := range [][]string{d.ColumnsOnlyA, d.ColumnsOnlyB, d.DerivedOnlyA, d.DerivedOnlyB} {
		for _, name := range names {
			if !isName(name) {
				return fmt.Errorf("results: diff %s vs %s: name %q is not a snake_case identifier", d.A, d.B, name)
			}
		}
	}
	for _, ref := range append(append([]RowRef(nil), d.RowsOnlyA...), d.RowsOnlyB...) {
		if err := d.validateKey(ref.Key); err != nil {
			return fmt.Errorf("results: diff %s vs %s: unmatched row %d: %w", d.A, d.B, ref.Row, err)
		}
	}
	for _, row := range d.Rows {
		if row.Row < 0 {
			return fmt.Errorf("results: diff %s vs %s: negative row index", d.A, d.B)
		}
		if err := d.validateKey(row.Key); err != nil {
			return fmt.Errorf("results: diff %s vs %s: row %d: %w", d.A, d.B, row.Row, err)
		}
		if len(row.Fields) == 0 {
			return fmt.Errorf("results: diff %s vs %s: row %d diff has no changed fields", d.A, d.B, row.Row)
		}
		for _, f := range row.Fields {
			if err := f.validate(); err != nil {
				return fmt.Errorf("results: diff %s vs %s: row %d: %w", d.A, d.B, row.Row, err)
			}
		}
	}
	for _, p := range d.Params {
		if !isName(p.Key) {
			return fmt.Errorf("results: diff %s vs %s: param key %q is not a snake_case identifier", d.A, d.B, p.Key)
		}
		if strings.ContainsAny(p.A+p.B, "\n\r") {
			return fmt.Errorf("results: diff %s vs %s: param %q value spans multiple lines", d.A, d.B, p.Key)
		}
	}
	for _, s := range d.Derived {
		if !isName(s.Key) {
			return fmt.Errorf("results: diff %s vs %s: derived key %q is not a snake_case identifier", d.A, d.B, s.Key)
		}
		for _, v := range []float64{s.A, s.B, s.Abs} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("results: diff %s vs %s: derived %q delta is %v", d.A, d.B, s.Key, v)
			}
		}
		if s.Rel != nil && (math.IsNaN(*s.Rel) || math.IsInf(*s.Rel, 0)) {
			return fmt.Errorf("results: diff %s vs %s: derived %q relative delta is %v", d.A, d.B, s.Key, *s.Rel)
		}
		if (s.Rel == nil) != (s.A == 0) {
			return fmt.Errorf("results: diff %s vs %s: derived %q relative delta must be present exactly when the baseline is non-zero", d.A, d.B, s.Key)
		}
	}
	return nil
}

// validateKey checks one row's key cells against the diff's key columns.
func (d *SweepDiff) validateKey(key map[string]any) error {
	if len(d.Keys) == 0 {
		if key != nil {
			return fmt.Errorf("key cells present under positional matching")
		}
		return nil
	}
	if len(key) != len(d.Keys) {
		return fmt.Errorf("key has %d cells, diff has %d key columns", len(key), len(d.Keys))
	}
	for _, c := range d.Keys {
		v, ok := key[c.Name]
		if !ok {
			return fmt.Errorf("key misses column %q", c.Name)
		}
		if err := checkCell(c, v); err != nil {
			return err
		}
	}
	return nil
}

// validate checks one field delta's internal consistency.
func (f *FieldDelta) validate() error {
	if !isName(f.Column) {
		return fmt.Errorf("column %q is not a snake_case identifier", f.Column)
	}
	if !f.Kind.valid() {
		return fmt.Errorf("column %q has unknown kind %q", f.Column, f.Kind)
	}
	col := Column{Name: f.Column, Kind: f.Kind, Unit: f.Unit}
	if err := checkUnit(col); err != nil {
		return err
	}
	if err := checkCell(col, f.A); err != nil {
		return fmt.Errorf("side a: %w", err)
	}
	if err := checkCell(col, f.B); err != nil {
		return fmt.Errorf("side b: %w", err)
	}
	if f.A == f.B {
		return fmt.Errorf("column %q delta records equal cells %v", f.Column, f.A)
	}
	if f.Kind == String {
		if f.Abs != nil || f.Rel != nil {
			return fmt.Errorf("column %q: string delta carries numeric deltas", f.Column)
		}
		return nil
	}
	a, b := cellFloat(f.A), cellFloat(f.B)
	if f.Abs == nil || *f.Abs != b-a {
		return fmt.Errorf("column %q: absolute delta disagrees with cells", f.Column)
	}
	if (f.Rel == nil) != (a == 0) {
		return fmt.Errorf("column %q: relative delta must be present exactly when the baseline is non-zero", f.Column)
	}
	if f.Rel != nil && (math.IsNaN(*f.Rel) || math.IsInf(*f.Rel, 0)) {
		return fmt.Errorf("column %q: relative delta is %v", f.Column, *f.Rel)
	}
	return nil
}

// checkCell verifies one canonical cell value against its column: the
// contract Sweep.Validate enforces on rows and SweepDiff.Validate on key
// cells and deltas.
func checkCell(c Column, cell any) error {
	switch c.Kind {
	case String:
		v, ok := cell.(string)
		if !ok {
			return fmt.Errorf("column %q: %T is not a string", c.Name, cell)
		}
		if strings.ContainsAny(v, "\n\r") {
			return fmt.Errorf("column %q spans multiple lines", c.Name)
		}
	case Int, Duration:
		if _, ok := cell.(int64); !ok {
			return fmt.Errorf("column %q: %T is not an int64", c.Name, cell)
		}
	case Float:
		v, ok := cell.(float64)
		if !ok {
			return fmt.Errorf("column %q: %T is not a float64", c.Name, cell)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("column %q is %v", c.Name, v)
		}
	}
	return nil
}

// checkUnit refuses a column unit the CSV header's "name:unit" cells
// cannot hold.
func checkUnit(c Column) error {
	if strings.ContainsAny(c.Unit, ":,\n\r") {
		return fmt.Errorf("column %q unit %q contains reserved characters", c.Name, c.Unit)
	}
	return nil
}

// cellFloat widens a canonical numeric cell to float64.
func cellFloat(cell any) float64 {
	switch v := cell.(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return math.NaN()
}

package analyze

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"atlahs/results"
)

// DiffOptions configures row matching for Diff.
type DiffOptions struct {
	// Keys names the columns rows are matched on; every key must exist in
	// both sweeps and key tuples must be unique within each sweep. Empty
	// means positional matching: row i of A against row i of B — the
	// right default for deterministic artifacts (service run sweeps,
	// regenerated experiment sweeps) whose row order is pinned.
	Keys []string
}

// Diff compares two validated sweeps field by field and returns the
// sparse atlahs.diff/v1 document: only changed rows, params and derived
// values are recorded, so identical sweeps produce Changed == 0 and no
// rows. Columns are paired by name; a column whose kind or unit differs
// between the sweeps is an error (the results schema is append-only, so
// a retyped column means the inputs disagree about what the data is).
func Diff(a, b *results.Sweep, opts DiffOptions) (*results.SweepDiff, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("analyze: sweep a: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("analyze: sweep b: %w", err)
	}
	d := &results.SweepDiff{A: a.Name, B: b.Name, RowsA: len(a.Rows), RowsB: len(b.Rows)}

	// Pair columns by name; record one-sided columns, reject retyped ones.
	bCols := map[string]results.Column{}
	for _, c := range b.Columns {
		bCols[c.Name] = c
	}
	aCols := map[string]results.Column{}
	var shared []results.Column
	for _, c := range a.Columns {
		aCols[c.Name] = c
		bc, ok := bCols[c.Name]
		if !ok {
			d.ColumnsOnlyA = append(d.ColumnsOnlyA, c.Name)
			continue
		}
		if bc.Kind != c.Kind || bc.Unit != c.Unit {
			return nil, fmt.Errorf("analyze: column %q is %s%s in %s but %s%s in %s; the sweeps disagree about the data",
				c.Name, c.Kind, unitSuffix(c.Unit), a.Name, bc.Kind, unitSuffix(bc.Unit), b.Name)
		}
		shared = append(shared, c)
	}
	for _, c := range b.Columns {
		if _, ok := aCols[c.Name]; !ok {
			d.ColumnsOnlyB = append(d.ColumnsOnlyB, c.Name)
		}
	}

	// Resolve key columns and match rows.
	for _, name := range opts.Keys {
		ac, ok := aCols[name]
		if !ok {
			return nil, fmt.Errorf("analyze: key column %q is not in sweep %s", name, a.Name)
		}
		if _, ok := bCols[name]; !ok {
			return nil, fmt.Errorf("analyze: key column %q is not in sweep %s", name, b.Name)
		}
		d.Keys = append(d.Keys, ac)
	}
	matchA, matchB, err := matchRows(a, b, d.Keys)
	if err != nil {
		return nil, err
	}

	// Walk A's rows in order: diff the matched ones, reference the rest.
	for i, rec := range a.Rows {
		j, ok := matchA[i]
		if !ok {
			d.RowsOnlyA = append(d.RowsOnlyA, results.RowRef{Row: i, Key: keyCells(a, d.Keys, rec)})
			continue
		}
		d.Matched++
		key := keyCells(a, d.Keys, rec)
		fields, err := diffFields(a, b, shared, rec, b.Rows[j])
		if err != nil {
			return nil, fmt.Errorf("analyze: %s: %w", rowWhere(i, key), err)
		}
		if len(fields) > 0 {
			d.Rows = append(d.Rows, results.RowDiff{Row: i, Key: key, Fields: fields})
		}
	}
	for j, rec := range b.Rows {
		if _, ok := matchB[j]; !ok {
			d.RowsOnlyB = append(d.RowsOnlyB, results.RowRef{Row: j, Key: keyCells(b, d.Keys, rec)})
		}
	}
	d.Changed = len(d.Rows)

	// Params: values differ (a missing param reads as the empty string).
	for _, key := range sortedKeys(a.Params, b.Params) {
		av, bv := a.Params[key], b.Params[key]
		if av != bv {
			d.Params = append(d.Params, results.ParamDelta{Key: key, A: av, B: bv})
		}
	}
	// Derived: changed shared aggregates, plus one-sided key lists.
	for _, key := range sortedKeys(a.Derived, b.Derived) {
		av, aok := a.Derived[key]
		bv, bok := b.Derived[key]
		switch {
		case aok && !bok:
			d.DerivedOnlyA = append(d.DerivedOnlyA, key)
		case bok && !aok:
			d.DerivedOnlyB = append(d.DerivedOnlyB, key)
		case av != bv:
			sd := results.ScalarDelta{Key: key, A: av, B: bv, Abs: bv - av, Rel: relDelta(av, bv)}
			if err := checkDeltas(av, bv, sd.Abs, sd.Rel); err != nil {
				return nil, fmt.Errorf("analyze: derived %q %w", key, err)
			}
			d.Derived = append(d.Derived, sd)
		}
	}
	return d, nil
}

// matchRows pairs rows of a and b: by key tuple when key columns are
// given (duplicate tuples within one sweep are ambiguous and rejected),
// by position otherwise.
func matchRows(a, b *results.Sweep, keys []results.Column) (matchA, matchB map[int]int, err error) {
	matchA, matchB = map[int]int{}, map[int]int{}
	if len(keys) == 0 {
		n := min(len(a.Rows), len(b.Rows))
		for i := 0; i < n; i++ {
			matchA[i], matchB[i] = i, i
		}
		return matchA, matchB, nil
	}
	index := func(s *results.Sweep) (map[string]int, error) {
		idx := make(map[string]int, len(s.Rows))
		for i, rec := range s.Rows {
			k := keyString(s, keys, rec)
			if prev, dup := idx[k]; dup {
				return nil, fmt.Errorf("analyze: sweep %s: rows %d and %d share key %s; keys must be unique to match on",
					s.Name, prev, i, FormatKey(keyCells(s, keys, rec)))
			}
			idx[k] = i
		}
		return idx, nil
	}
	bIdx, err := index(b)
	if err != nil {
		return nil, nil, err
	}
	if _, err := index(a); err != nil {
		return nil, nil, err
	}
	for i, rec := range a.Rows {
		if j, ok := bIdx[keyString(a, keys, rec)]; ok {
			matchA[i], matchB[j] = j, i
		}
	}
	return matchA, matchB, nil
}

// diffFields compares one matched row pair over the shared columns,
// returning a delta per differing cell. Key columns are compared too —
// by construction their cells are equal, so they simply never differ.
func diffFields(a, b *results.Sweep, shared []results.Column, ra, rb results.Record) ([]results.FieldDelta, error) {
	var fields []results.FieldDelta
	for _, c := range shared {
		av := ra[a.ColumnIndex(c.Name)]
		bv := rb[b.ColumnIndex(c.Name)]
		if av == bv {
			continue
		}
		f := results.FieldDelta{Column: c.Name, Kind: c.Kind, Unit: c.Unit, A: av, B: bv}
		if c.Kind != results.String {
			af, bf := cellFloat(av), cellFloat(bv)
			abs := bf - af
			f.Abs = &abs
			f.Rel = relDelta(af, bf)
			if err := checkDeltas(av, bv, abs, f.Rel); err != nil {
				return nil, fmt.Errorf("column %q %w", c.Name, err)
			}
		}
		fields = append(fields, f)
	}
	return fields, nil
}

// checkDeltas refuses a move from a to b whose absolute or relative delta
// overflows float64: finite cells can be far enough apart (-1.7e308 to
// 1.7e308) or start close enough to zero (1e-310 to 1) that the delta is
// infinite, and an atlahs.diff/v1 document holds finite numbers only.
func checkDeltas(a, b any, abs float64, rel *float64) error {
	if math.IsInf(abs, 0) {
		return fmt.Errorf("moves %v -> %v: absolute delta is %v", a, b, abs)
	}
	if rel != nil && math.IsInf(*rel, 0) {
		return fmt.Errorf("moves %v -> %v: relative delta is %v", a, b, *rel)
	}
	return nil
}

// rowWhere locates a row for error, report and CLI text: its key cells,
// or its index under positional matching.
func rowWhere(row int, key map[string]any) string {
	if key == nil {
		return fmt.Sprintf("row %d", row)
	}
	return FormatKey(key)
}

// keyCells extracts one row's key cells, nil under positional matching.
func keyCells(s *results.Sweep, keys []results.Column, rec results.Record) map[string]any {
	if len(keys) == 0 {
		return nil
	}
	key := make(map[string]any, len(keys))
	for _, c := range keys {
		key[c.Name] = rec[s.ColumnIndex(c.Name)]
	}
	return key
}

// keyString renders a row's key tuple as a collision-free map key.
func keyString(s *results.Sweep, keys []results.Column, rec results.Record) string {
	var sb strings.Builder
	for _, c := range keys {
		switch v := rec[s.ColumnIndex(c.Name)].(type) {
		case string:
			sb.WriteString(v)
		case int64:
			sb.WriteString(strconv.FormatInt(v, 10))
		case float64:
			sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		sb.WriteByte(0) // cells cannot contain NUL (validated single-line strings)
	}
	return sb.String()
}

// FormatKey renders a row's key cells for error, report and CLI text:
// "k=v" pairs in sorted key order, "(positional)" when there are none.
func FormatKey(key map[string]any) string {
	if len(key) == 0 {
		return "(positional)"
	}
	names := make([]string, 0, len(key))
	for name := range key {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%v", name, key[name])
	}
	return strings.Join(parts, " ")
}

// relDelta computes (b-a)/|a|, nil when the baseline is zero.
func relDelta(a, b float64) *float64 {
	if a == 0 {
		return nil
	}
	rel := (b - a) / math.Abs(a)
	return &rel
}

// cellFloat widens a canonical numeric cell to float64.
func cellFloat(cell any) float64 {
	switch v := cell.(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

// sortedKeys returns the union of both maps' keys, sorted.
func sortedKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	var keys []string
	for k := range a {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for k := range b {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// unitSuffix formats a column unit for error text.
func unitSuffix(unit string) string {
	if unit == "" {
		return ""
	}
	return " [" + unit + "]"
}

package results

import (
	"fmt"
	"math"
	"reflect"
	"strings"
)

// Schema identifies the record layout this package reads and writes. It
// only changes when a released field is renamed or retyped (see the
// package documentation's stability guarantee).
const Schema = "atlahs.results/v1"

// Kind is a column's cell type.
type Kind string

// Column kinds. Duration cells are simulated time as integer picoseconds
// (the base unit of internal/simtime), kept distinct from plain integers
// so consumers can format them as time without guessing from units.
const (
	String   Kind = "string"
	Int      Kind = "int"
	Float    Kind = "float"
	Duration Kind = "duration"
)

// valid reports whether k is a known column kind.
func (k Kind) valid() bool {
	switch k {
	case String, Int, Float, Duration:
		return true
	}
	return false
}

// Column describes one field of every Record in a Sweep.
type Column struct {
	// Name is the snake_case field key ("measured", "lgs_err_pct", ...).
	Name string `json:"name"`
	// Kind is the cell type.
	Kind Kind `json:"kind"`
	// Unit optionally names the value's unit ("ps", "%", "B", ...).
	Unit string `json:"unit,omitempty"`
}

// Record is one row of a Sweep: cells aligned with the Sweep's Columns.
// Cells hold canonical types only — string for String columns, int64 for
// Int and Duration columns, float64 for Float columns — which AddRow
// enforces, so decoded sweeps compare equal to the originals.
type Record []any

// Sweep is one experiment's structured output: a typed table of
// configuration points plus the experiment-level scalars around it.
type Sweep struct {
	// Name is the machine-readable experiment key ("fig8", "table1", ...).
	Name string
	// Title is the human heading (the text report's underlined header).
	Title string
	// Mode records the sizing the sweep ran at ("quick", "full").
	Mode string
	// Params are experiment-level inputs worth preserving with the data
	// (workload sizes, layouts, cluster shapes).
	Params map[string]string
	// Columns is the row schema.
	Columns []Column
	// Rows are the configuration points, in presentation order.
	Rows []Record
	// Derived are aggregates computed across rows (worst-case errors,
	// degradation deltas).
	Derived map[string]float64
	// Notes carry the report's free-text commentary lines.
	Notes []string
}

// NewSweep starts an empty sweep with the identifying metadata set.
func NewSweep(name, title, mode string) *Sweep {
	return &Sweep{Name: name, Title: title, Mode: mode}
}

// AddColumn appends a column to the schema and returns the sweep for
// chaining. It must be called before the first AddRow.
func (s *Sweep) AddColumn(name string, kind Kind, unit string) *Sweep {
	s.Columns = append(s.Columns, Column{Name: name, Kind: kind, Unit: unit})
	return s
}

// AddRow appends one record, coercing each cell to its column's canonical
// type (any integer kind for Int/Duration — including simtime.Duration and
// time.Duration — any float or integer for Float, string or fmt.Stringer
// for String). A cell count or type mismatch is an error.
func (s *Sweep) AddRow(cells ...any) error {
	if len(cells) != len(s.Columns) {
		return fmt.Errorf("results: sweep %q row has %d cells, schema has %d columns", s.Name, len(cells), len(s.Columns))
	}
	rec := make(Record, len(cells))
	for i, cell := range cells {
		v, err := coerce(s.Columns[i], cell)
		if err != nil {
			return fmt.Errorf("results: sweep %q row %d: %w", s.Name, len(s.Rows), err)
		}
		rec[i] = v
	}
	s.Rows = append(s.Rows, rec)
	return nil
}

// MustAddRow is AddRow for statically-shaped rows, panicking on mismatch
// (a programming error in the producing experiment, not a data condition).
func (s *Sweep) MustAddRow(cells ...any) {
	if err := s.AddRow(cells...); err != nil {
		panic(err)
	}
}

// SetParam records an experiment-level input.
func (s *Sweep) SetParam(key, value string) {
	if s.Params == nil {
		s.Params = map[string]string{}
	}
	s.Params[key] = value
}

// SetDerived records a cross-row aggregate.
func (s *Sweep) SetDerived(key string, value float64) {
	if s.Derived == nil {
		s.Derived = map[string]float64{}
	}
	s.Derived[key] = value
}

// Note appends commentary lines.
func (s *Sweep) Note(lines ...string) {
	s.Notes = append(s.Notes, lines...)
}

// ColumnIndex returns the index of the named column, or -1.
func (s *Sweep) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// coerce converts cell to the canonical type of column c.
func coerce(c Column, cell any) (any, error) {
	switch c.Kind {
	case String:
		if v, ok := cell.(string); ok {
			return v, nil
		}
		if v, ok := cell.(fmt.Stringer); ok {
			return v.String(), nil
		}
	case Int, Duration:
		rv := reflect.ValueOf(cell)
		switch rv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			return rv.Int(), nil
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			u := rv.Uint()
			if u > math.MaxInt64 {
				return nil, fmt.Errorf("column %q: value %d overflows int64", c.Name, u)
			}
			return int64(u), nil
		}
	case Float:
		rv := reflect.ValueOf(cell)
		switch rv.Kind() {
		case reflect.Float32, reflect.Float64:
			return rv.Float(), nil
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			return float64(rv.Int()), nil
		}
	}
	return nil, fmt.Errorf("column %q (%s): cannot hold %T value", c.Name, c.Kind, cell)
}

// isName reports whether s is a snake_case identifier, a lower-case
// letter followed by lower-case letters, digits and underscores: the
// names that become JSON keys, CSV header cells and store file names.
func isName(s string) bool {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		if c := s[i]; !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '_') {
			return false
		}
	}
	return true
}

// Validate checks the sweep against the schema contract: identifying
// metadata present and single-line, snake_case column and key names, cells
// matching their column kinds, and every numeric value finite (NaN and
// infinities have no JSON encoding). Both encoders validate before
// writing; CI's artifact check is DecodeJSON, which validates after
// reading.
func (s *Sweep) Validate() error {
	if !isName(s.Name) {
		return fmt.Errorf("results: sweep name %q is not a snake_case identifier", s.Name)
	}
	if err := s.checkLine(s.Title); err != nil {
		return err
	}
	if err := s.checkLine(s.Mode); err != nil {
		return err
	}
	for _, line := range s.Notes {
		if err := s.checkLine(line); err != nil {
			return err
		}
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("results: sweep %q has no columns", s.Name)
	}
	for j, c := range s.Columns {
		if !isName(c.Name) {
			return fmt.Errorf("results: sweep %q: column name %q is not a snake_case identifier", s.Name, c.Name)
		}
		// a sweep has a handful of columns: a scan costs less than a set
		if s.ColumnIndex(c.Name) != j {
			return fmt.Errorf("results: sweep %q: duplicate column %q", s.Name, c.Name)
		}
		if !c.Kind.valid() {
			return fmt.Errorf("results: sweep %q: column %q has unknown kind %q", s.Name, c.Name, c.Kind)
		}
		if err := checkUnit(c); err != nil {
			return fmt.Errorf("results: sweep %q: %w", s.Name, err)
		}
	}
	for key := range s.Params {
		if !isName(key) {
			return fmt.Errorf("results: sweep %q: param key %q is not a snake_case identifier", s.Name, key)
		}
		if strings.ContainsAny(s.Params[key], "\n\r") {
			return fmt.Errorf("results: sweep %q: param %q value spans multiple lines", s.Name, key)
		}
	}
	for key, v := range s.Derived {
		if !isName(key) {
			return fmt.Errorf("results: sweep %q: derived key %q is not a snake_case identifier", s.Name, key)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("results: sweep %q: derived %q is %v", s.Name, key, v)
		}
	}
	for i, rec := range s.Rows {
		if len(rec) != len(s.Columns) {
			return fmt.Errorf("results: sweep %q: row %d has %d cells, schema has %d columns", s.Name, i, len(rec), len(s.Columns))
		}
		for j, cell := range rec {
			if err := checkCell(s.Columns[j], cell); err != nil {
				return fmt.Errorf("results: sweep %q: row %d %w", s.Name, i, err)
			}
		}
	}
	return nil
}

// checkLine refuses a metadata line (title, mode or note) that spans
// multiple lines.
func (s *Sweep) checkLine(line string) error {
	if strings.ContainsAny(line, "\n\r") {
		return fmt.Errorf("results: sweep %q: metadata line %q spans multiple lines", s.Name, line)
	}
	return nil
}

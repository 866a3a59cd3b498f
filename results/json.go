package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// jsonSweep is the wire form of a Sweep (see the package documentation's
// schema). Rows are objects keyed by column name so artifacts stay
// self-describing when inspected by hand or by column-name consumers.
type jsonSweep struct {
	Schema  string             `json:"schema"`
	Name    string             `json:"name"`
	Title   string             `json:"title,omitempty"`
	Mode    string             `json:"mode,omitempty"`
	Params  map[string]string  `json:"params,omitempty"`
	Columns []Column           `json:"columns"`
	Rows    []map[string]any   `json:"rows"`
	Derived map[string]float64 `json:"derived,omitempty"`
	Notes   []string           `json:"notes,omitempty"`
}

// EncodeJSON validates s and writes it as one atlahs.results/v1 document.
func EncodeJSON(w io.Writer, s *Sweep) error {
	js, err := wireSweep(s)
	if err != nil {
		return err
	}
	return EncodeDoc(w, js)
}

// EncodeJSONList validates every sweep and writes them as one JSON array
// followed by a newline, each element indented like a document of its own.
func EncodeJSONList(w io.Writer, sweeps []*Sweep) error {
	var buf bytes.Buffer
	buf.WriteString("[")
	for i, s := range sweeps {
		js, err := wireSweep(s)
		if err != nil {
			return err
		}
		b, err := MarshalDoc(js)
		if err != nil {
			return err
		}
		if i > 0 {
			buf.WriteString(",")
		}
		buf.WriteString("\n")
		buf.Write(b[:len(b)-1]) // the element's newline closes the line
	}
	if len(sweeps) > 0 {
		buf.WriteString("\n")
	}
	buf.WriteString("]\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// wireSweep validates s and builds its wire form.
func wireSweep(s *Sweep) (jsonSweep, error) {
	if err := s.Validate(); err != nil {
		return jsonSweep{}, err
	}
	js := jsonSweep{
		Schema:  Schema,
		Name:    s.Name,
		Title:   s.Title,
		Mode:    s.Mode,
		Params:  s.Params,
		Columns: s.Columns,
		Rows:    make([]map[string]any, len(s.Rows)),
		Derived: s.Derived,
		Notes:   s.Notes,
	}
	for i, rec := range s.Rows {
		row := make(map[string]any, len(rec))
		for j, cell := range rec {
			row[s.Columns[j].Name] = cell
		}
		js.Rows[i] = row
	}
	return js, nil
}

// DecodeJSON reads one Sweep written by EncodeJSON through DecodeDoc,
// rejecting rows that miss or add columns and cells of the wrong type. The
// returned sweep is validated and compares equal (DeepEqual) to the
// encoded one.
func DecodeJSON(r io.Reader) (*Sweep, error) {
	var js jsonSweep
	if err := DecodeDoc(r, "sweep", Schema, &js); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	s := &Sweep{
		Name:    js.Name,
		Title:   js.Title,
		Mode:    js.Mode,
		Columns: js.Columns,
		Notes:   orNil(js.Notes),
	}
	if len(js.Params) > 0 {
		s.Params = js.Params
	}
	if len(js.Derived) > 0 {
		s.Derived = js.Derived
	}
	for i, row := range js.Rows {
		if len(row) != len(js.Columns) {
			return nil, fmt.Errorf("results: sweep %q: row %d has %d fields, schema has %d columns", js.Name, i, len(row), len(js.Columns))
		}
		rec := make(Record, len(js.Columns))
		for j, c := range js.Columns {
			raw, ok := row[c.Name]
			if !ok {
				return nil, fmt.Errorf("results: sweep %q: row %d misses column %q", js.Name, i, c.Name)
			}
			cell, err := cellFromJSON(c, raw)
			if err != nil {
				return nil, fmt.Errorf("results: sweep %q: row %d: %w", js.Name, i, err)
			}
			rec[j] = cell
		}
		s.Rows = append(s.Rows, rec)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// cellFromJSON converts a decoded JSON value (string or json.Number) to
// the column's canonical cell type.
func cellFromJSON(c Column, raw any) (any, error) {
	switch c.Kind {
	case String:
		if v, ok := raw.(string); ok {
			return v, nil
		}
	case Int, Duration:
		if n, ok := raw.(json.Number); ok {
			v, err := n.Int64()
			if err != nil {
				return nil, fmt.Errorf("column %q: %q is not an int64", c.Name, n)
			}
			return v, nil
		}
	case Float:
		if n, ok := raw.(json.Number); ok {
			v, err := n.Float64()
			if err != nil {
				return nil, fmt.Errorf("column %q: %q is not a float64", c.Name, n)
			}
			return v, nil
		}
	}
	return nil, fmt.Errorf("column %q (%s): JSON value %v has wrong type", c.Name, c.Kind, raw)
}

package results

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// jsonSweep is what DecodeJSON reads a Sweep's wire form into (see the
// package documentation's schema). Rows are objects keyed by column name
// so artifacts stay self-describing when inspected by hand or by
// column-name consumers.
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
	b, err := AppendJSON(nil, s)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// EncodeJSONList validates every sweep and writes them as one JSON array
// followed by a newline, each element indented like a document of its own.
func EncodeJSONList(w io.Writer, sweeps []*Sweep) error {
	b := []byte{'['}
	for i, s := range sweeps {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '\n')
		var err error
		if b, err = AppendJSON(b, s); err != nil {
			return err
		}
		b = b[:len(b)-1] // the element's newline closes the line
	}
	if len(sweeps) > 0 {
		b = append(b, '\n')
	}
	b = append(b, "]\n"...)
	_, err := w.Write(b)
	return err
}

// AppendJSON validates s and appends the document EncodeJSON writes to
// dst, in one pass over the sweep, growing dst once to about the
// document's length (jsonSize). The bytes are those encoding/json's
// MarshalIndent (two spaces, the canonical form of MarshalDoc) gives the
// wire form: row cells and params and derived keys in sorted key order,
// empty optional fields left out, floats in encoding/json's ES6 form and
// strings escaped as it escapes them.
func AppendJSON(dst []byte, s *Sweep) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return dst, err
	}
	b := slices.Grow(dst, jsonSize(s))
	b = append(b, "{\n  \"schema\": "...)
	b = appendJSONString(b, Schema)
	b = append(b, ",\n  \"name\": "...)
	b = appendJSONString(b, s.Name)
	if s.Title != "" {
		b = append(b, ",\n  \"title\": "...)
		b = appendJSONString(b, s.Title)
	}
	if s.Mode != "" {
		b = append(b, ",\n  \"mode\": "...)
		b = appendJSONString(b, s.Mode)
	}
	if len(s.Params) > 0 {
		var kb [16]string
		b = append(b, ",\n  \"params\": {"...)
		for i, k := range sortedKeys(s.Params, kb[:0]) {
			b = appendKey(b, i, "\n    ", k)
			b = appendJSONString(b, s.Params[k])
		}
		b = append(b, "\n  }"...)
	}
	b = append(b, ",\n  \"columns\": ["...)
	for i, c := range s.Columns {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"name\": "...)
		b = appendJSONString(b, c.Name)
		b = append(b, ",\n      \"kind\": "...)
		b = appendJSONString(b, string(c.Kind))
		if c.Unit != "" {
			b = append(b, ",\n      \"unit\": "...)
			b = appendJSONString(b, c.Unit)
		}
		b = append(b, "\n    }"...)
	}
	b = append(b, "\n  ],\n  \"rows\": ["...)
	if len(s.Rows) > 0 {
		// A row is an object keyed by column name, so its cells go out in
		// name order, the order encoding/json gives a map's keys.
		var ob [16]int
		order := ob[:0]
		for j := range s.Columns {
			order = append(order, j)
		}
		slices.SortFunc(order, func(x, y int) int { return strings.Compare(s.Columns[x].Name, s.Columns[y].Name) })
		for i, rec := range s.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    {"...)
			for n, j := range order {
				b = appendKey(b, n, "\n      ", s.Columns[j].Name)
				switch v := rec[j].(type) {
				case string:
					b = appendJSONString(b, v)
				case int64:
					b = strconv.AppendInt(b, v, 10)
				case float64:
					b = appendJSONFloat(b, v)
				}
			}
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  "...)
	}
	b = append(b, ']')
	if len(s.Derived) > 0 {
		var kb [16]string
		b = append(b, ",\n  \"derived\": {"...)
		for i, k := range sortedKeys(s.Derived, kb[:0]) {
			b = appendKey(b, i, "\n    ", k)
			b = appendJSONFloat(b, s.Derived[k])
		}
		b = append(b, "\n  }"...)
	}
	if len(s.Notes) > 0 {
		b = append(b, ",\n  \"notes\": ["...)
		for i, line := range s.Notes {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = appendJSONString(b, line)
		}
		b = append(b, "\n  ]"...)
	}
	return append(b, "\n}\n"...), nil
}

// jsonSize is about the length of s's document, so that the buffer is
// allocated once and a stored artifact holds little spare capacity. Every
// member is counted exactly but the fixed members, which get one
// allowance, and strings, which are counted as if nothing in them needed
// escaping.
func jsonSize(s *Sweep) int {
	n := 200 + len(s.Name) + len(s.Title) + len(s.Mode)
	for k, v := range s.Params {
		n += 12 + len(k) + len(v)
	}
	for _, c := range s.Columns {
		n += 68 + len(c.Name) + len(c.Kind) + len(c.Unit)
	}
	for _, rec := range s.Rows {
		n += 12
		for j, cell := range rec {
			n += 12 + len(s.Columns[j].Name)
			switch v := cell.(type) {
			case string:
				n += 2 + len(v)
			case int64:
				n += intWidth(v)
			case float64:
				n += floatWidth(v)
			}
		}
	}
	for k, v := range s.Derived {
		n += 10 + len(k) + floatWidth(v)
	}
	for _, line := range s.Notes {
		n += 8 + len(line)
	}
	return n
}

// floatWidth is the number of bytes appendJSONFloat writes for f.
func floatWidth(f float64) int {
	var buf [32]byte
	return len(appendJSONFloat(buf[:0], f))
}

// intWidth is the number of bytes strconv.AppendInt writes for v.
func intWidth(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// sortedKeys returns m's keys in order, appended to buf.
func sortedKeys[V any](m map[string]V, buf []string) []string {
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// appendKey appends the i-th key of an object opened on the line before:
// a comma after the previous member, the line break and indent, and the
// quoted key. Keys are snake_case names (Validate), which need no
// escaping.
func appendKey(b []byte, i int, indent, key string) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	b = append(b, indent...)
	b = append(b, '"')
	b = append(b, key...)
	return append(b, "\": "...)
}

// appendJSONFloat appends f as encoding/json writes a float64: like
// strconv's shortest 'f' form, but in exponent form below 1e-6 and from
// 1e21 on, with a one-digit negative exponent not padded (e-7, not
// e-07). f is finite (Validate).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s quoted as encoding/json quotes a string with
// its default HTML escaping. Runs of printable ASCII other than `"`, `\`,
// `<`, `>` and `&` are copied as they are, each in one append, so a string
// made only of such bytes, which is every string the simulation service
// writes, costs one scan and one copy.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start, i := 0, 0
	for i < len(s) {
		c := s[i]
		if c < utf8.RuneSelf {
			if plainASCII(c) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				// other control bytes, and <, > and &
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			// valid JSON, but not valid JavaScript: encoding/json escapes
			// the two line separators, and so does this
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// plainASCII reports whether c is copied into a JSON string as is.
func plainASCII(c byte) bool {
	return c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

const hexDigits = "0123456789abcdef"

// DecodeJSON reads one Sweep written by EncodeJSON through DecodeDoc,
// rejecting rows that miss or add columns and cells of the wrong type. The
// returned sweep is validated and compares equal (DeepEqual) to the
// encoded one.
func DecodeJSON(r io.Reader) (*Sweep, error) {
	var js jsonSweep
	if err := readDoc(r, "sweep", Schema, &js); err != nil {
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

package results

import (
	"encoding/csv"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// EncodeCSV validates s and writes it as a "# "-prefixed metadata preamble
// followed by an RFC-4180 table whose header cells carry the column schema
// ("name:kind" or "name:kind:unit"). See the package documentation for the
// full layout.
func EncodeCSV(w io.Writer, s *Sweep) error {
	if err := s.Validate(); err != nil {
		return err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# schema %s\n", Schema)
	fmt.Fprintf(&sb, "# name %s\n", s.Name)
	if s.Title != "" {
		fmt.Fprintf(&sb, "# title %s\n", s.Title)
	}
	if s.Mode != "" {
		fmt.Fprintf(&sb, "# mode %s\n", s.Mode)
	}
	for _, key := range slices.Sorted(maps.Keys(s.Params)) {
		fmt.Fprintf(&sb, "# param %s %s\n", key, s.Params[key])
	}
	for _, key := range slices.Sorted(maps.Keys(s.Derived)) {
		fmt.Fprintf(&sb, "# derived %s %s\n", key, strconv.FormatFloat(s.Derived[key], 'g', -1, 64))
	}
	for _, note := range s.Notes {
		fmt.Fprintf(&sb, "# note %s\n", note)
	}
	cw := csv.NewWriter(&sb)
	header := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		header[i] = c.Name + ":" + string(c.Kind)
		if c.Unit != "" {
			header[i] += ":" + c.Unit
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, rec := range s.Rows {
		row := make([]string, len(rec))
		for j, cell := range rec {
			switch v := cell.(type) {
			case string:
				row[j] = v
			case int64:
				row[j] = strconv.FormatInt(v, 10)
			case float64:
				row[j] = strconv.FormatFloat(v, 'g', -1, 64)
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"atlahs/results"
)

// WritePrometheus renders samples in the Prometheus text exposition
// format (version 0.0.4), in the order given: one # HELP / # TYPE pair
// where a family's samples begin, then the samples. A family's samples
// must sit together for the output to be valid exposition; the caller's
// list fixes the order, so the same samples always render the same bytes.
func WritePrometheus(w io.Writer, samples []results.Metric) error {
	var b strings.Builder
	lastFamily := ""
	for _, p := range samples {
		if p.Name != lastFamily {
			if p.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", p.Name, escapeHelp(p.Help))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", p.Name, p.Type)
			lastFamily = p.Name
		}
		switch p.Type {
		case "histogram":
			for _, bk := range p.Buckets {
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", p.Name, formatFloat(bk.LE), bk.Count)
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", p.Name, p.Count)
			fmt.Fprintf(&b, "%s_sum %s\n", p.Name, formatFloat(p.Sum))
			fmt.Fprintf(&b, "%s_count %d\n", p.Name, p.Count)
		default:
			if p.Label != "" {
				// %q matches the exposition format's label escaping
				// (backslash, quote, \n) only for a value of valid UTF-8
				// made of strconv.IsPrint runes, plus newlines; a tab or
				// an invalid byte would come out as an escape the format
				// lacks. Label values are fixed strings or admission
				// classes, and atlahsd refuses an X-Submitter that is not
				// printable UTF-8.
				fmt.Fprintf(&b, "%s{%s=%q} %s\n", p.Name, p.Label, p.LabelValue, formatFloat(p.Value))
			} else {
				fmt.Fprintf(&b, "%s %s\n", p.Name, formatFloat(p.Value))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a sample value the way Prometheus clients do:
// shortest round-trip representation.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP line per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

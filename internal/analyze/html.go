package analyze

import (
	"fmt"
	"html/template"
	"io"
	"strconv"

	"atlahs/results"
)

// Report is what RenderHTML renders: an optional sweep diff and the
// gate's regressions. Rendering is a pure function of this value — no
// clocks, no environment — so report bytes are reproducible and
// golden-testable.
type Report struct {
	// Title heads the document.
	Title string
	// Diff is an optional sweep comparison section.
	Diff *results.SweepDiff
	// Regressions is the gate's verdict over the diff.
	Regressions []Regression
}

// RenderHTML writes the report as one self-contained HTML document: no
// external scripts, styles or fonts, so it renders identically from a
// file or a CI artifact (`atlahs-analyze diff -html`). Output is deterministic —
// byte-pinned by the golden test.
func RenderHTML(w io.Writer, r *Report) error {
	return reportTmpl.Execute(w, r)
}

// tmplFuncs are the template helpers; all formatting is deterministic.
var tmplFuncs = template.FuncMap{
	"num": func(v float64) string {
		return strconv.FormatFloat(v, 'g', -1, 64)
	},
	"pct": func(v float64) string {
		return fmt.Sprintf("%+.1f%%", 100*v)
	},
	"cell": func(v any) string {
		switch c := v.(type) {
		case string:
			return c
		case int64:
			return strconv.FormatInt(c, 10)
		case float64:
			return strconv.FormatFloat(c, 'g', -1, 64)
		}
		return fmt.Sprint(v)
	},
	"where": func(r results.RowDiff) string {
		if r.Key == nil {
			return fmt.Sprintf("row %d", r.Row)
		}
		return FormatKey(r.Key)
	},
	"key": func(r results.RowRef) string {
		if r.Key == nil {
			return fmt.Sprintf("row %d", r.Row)
		}
		return FormatKey(r.Key)
	},
	"rel": func(f results.FieldDelta) string {
		if f.Rel == nil {
			return "—"
		}
		return fmt.Sprintf("%+.1f%%", 100**f.Rel)
	},
	"srel": func(s results.ScalarDelta) string {
		if s.Rel == nil {
			return "—"
		}
		return fmt.Sprintf("%+.1f%%", 100**s.Rel)
	},
}

var reportTmpl = template.Must(template.New("report").Funcs(tmplFuncs).Parse(`<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:60rem;padding:0 1rem;color:#1a1a1a}
h1{font-size:1.4rem}h2{font-size:1.1rem;margin-top:2rem;border-bottom:1px solid #ddd;padding-bottom:.25rem}
table{border-collapse:collapse;width:100%;margin:.75rem 0}
th,td{text-align:left;padding:.3rem .6rem;border-bottom:1px solid #eee;font-variant-numeric:tabular-nums}
th{border-bottom:1px solid #bbb}
.bad{color:#b00020;font-weight:600}.ok{color:#1b7f3b;font-weight:600}
.spark{color:#3b5bdb;vertical-align:middle}
.muted{color:#777}
code{background:#f4f4f4;padding:.05rem .3rem;border-radius:3px}
</style>
</head>
<body>
<h1>{{.Title}}</h1>
{{- if .Regressions}}
<p class="bad">{{len .Regressions}} regression(s) flagged.</p>
<h2>Regressions</h2>
<table>
<tr><th>metric</th><th>where</th><th>baseline</th><th>now</th><th>delta</th></tr>
{{- range .Regressions}}
<tr><td><code>{{.Metric}}</code></td><td>{{.Where}}</td><td>{{num .A}}</td><td>{{num .B}}</td><td class="bad">{{pct .Rel}}</td></tr>
{{- end}}
</table>
{{- else}}
<p class="ok">No regressions flagged.</p>
{{- end}}
{{- with .Diff}}
<h2>Diff: {{.A}} vs {{.B}}</h2>
<p>{{.RowsA}} rows vs {{.RowsB}} rows &middot; {{.Matched}} matched &middot; {{.Changed}} changed
{{- if .RowsOnlyA}} &middot; {{len .RowsOnlyA}} only in {{.A}}{{end}}
{{- if .RowsOnlyB}} &middot; {{len .RowsOnlyB}} only in {{.B}}{{end}}</p>
{{- if .Rows}}
<table>
<tr><th>record</th><th>column</th><th>a</th><th>b</th><th>abs</th><th>rel</th></tr>
{{- range $row := .Rows}}
{{- range $row.Fields}}
<tr><td>{{where $row}}</td><td><code>{{.Column}}</code>{{if .Unit}} <span class="muted">[{{.Unit}}]</span>{{end}}</td><td>{{cell .A}}</td><td>{{cell .B}}</td><td>{{if .Abs}}{{num .Abs}}{{else}}—{{end}}</td><td>{{rel .}}</td></tr>
{{- end}}
{{- end}}
</table>
{{- end}}
{{- if .Derived}}
<table>
<tr><th>derived</th><th>a</th><th>b</th><th>abs</th><th>rel</th></tr>
{{- range .Derived}}
<tr><td><code>{{.Key}}</code></td><td>{{num .A}}</td><td>{{num .B}}</td><td>{{num .Abs}}</td><td>{{srel .}}</td></tr>
{{- end}}
</table>
{{- end}}
{{- if .Params}}
<table>
<tr><th>param</th><th>a</th><th>b</th></tr>
{{- range .Params}}
<tr><td><code>{{.Key}}</code></td><td>{{.A}}</td><td>{{.B}}</td></tr>
{{- end}}
</table>
{{- end}}
{{- if .RowsOnlyA}}
<p>Only in {{.A}}:{{range .RowsOnlyA}} <code>{{key .}}</code>{{end}}</p>
{{- end}}
{{- if .RowsOnlyB}}
<p>Only in {{.B}}:{{range .RowsOnlyB}} <code>{{key .}}</code>{{end}}</p>
{{- end}}
{{- if or .ColumnsOnlyA .ColumnsOnlyB}}
<p class="muted">Uncompared columns:{{range .ColumnsOnlyA}} <code>{{.}}</code> (a){{end}}{{range .ColumnsOnlyB}} <code>{{.}}</code> (b){{end}}</p>
{{- end}}
{{- end}}
</body>
</html>
`))

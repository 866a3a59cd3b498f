package results

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// malformed derives, from one valid encoding, the inputs every reader of
// a versioned document must reject: good is the encoding, schema its
// schema string, and nested rewrites one field a level down into a field
// plus an unknown one.
func malformed(t *testing.T, good, schema string, nested [2]string) map[string]string {
	t.Helper()
	cases := map[string]string{
		"wrong schema":         strings.Replace(good, `"`+schema+`"`, `"atlahs.other/v9"`, 1),
		"missing schema":       strings.Replace(good, `"schema": "`+schema+`",`, "", 1),
		"unknown field":        strings.Replace(good, "{", `{"bogus": 1,`, 1),
		"unknown nested field": strings.Replace(good, nested[0], nested[1], 1),
		"trailing garbage":     good + "garbage",
		"trailing brace":       good + "}",
		"two documents":        good + good,
		"empty input":          "",
	}
	for name, in := range cases {
		if in == good {
			t.Fatalf("%s: the rewrite did not apply to\n%s", name, good)
		}
	}
	return cases
}

// TestReadersRejectMalformedDocuments: every reader in this package
// refuses each malformed input with an error that names its document.
func TestReadersRejectMalformedDocuments(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type meta struct {
		Schema string `json:"schema"`
		Result struct {
			Runtime int64 `json:"runtime"`
		} `json:"result"`
	}
	m := meta{Schema: "atlahs.runmeta/v1"}
	m.Result.Runtime = 5
	if err := st.SaveMeta("run_one", m); err != nil {
		t.Fatal(err)
	}
	metaDoc, err := os.ReadFile(st.MetaPath("run_one"))
	if err != nil {
		t.Fatal(err)
	}
	encoded := func(encode func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, r := range []struct {
		doc, schema, good string
		nested            [2]string
		read              func(string) error
	}{
		{"sweep", Schema, encoded(func(b *bytes.Buffer) error { return EncodeJSON(b, sample()) }),
			[2]string{`"kind": "string"`, `"kind": "string", "bogus": 1`},
			func(in string) error { _, err := DecodeJSON(strings.NewReader(in)); return err }},
		{"metrics", MetricsSchema, encoded(func(b *bytes.Buffer) error { return EncodeMetricsJSON(b, sampleSnapshot()) }),
			[2]string{`"type": "counter"`, `"type": "counter", "bogus": 1`},
			func(in string) error { _, err := DecodeMetricsJSON(strings.NewReader(in)); return err }},
		{"model", ModelSchema, encoded(func(b *bytes.Buffer) error { return EncodeModelJSON(b, testModel()) }),
			[2]string{`"calc": {`, `"calc": {"bogus": 1,`},
			func(in string) error { _, err := DecodeModelJSON(strings.NewReader(in)); return err }},
		{"run metadata", "atlahs.runmeta/v1", string(metaDoc),
			[2]string{`"runtime": 5`, `"runtime": 5, "bogus": 1`},
			func(in string) error {
				if err := os.WriteFile(st.MetaPath("run_one"), []byte(in), 0o644); err != nil {
					t.Fatal(err)
				}
				var got meta
				return st.LoadMeta("run_one", &got)
			}},
	} {
		if err := r.read(r.good); err != nil {
			t.Fatalf("%s: the valid document is rejected: %v", r.doc, err)
		}
		for name, in := range malformed(t, r.good, r.schema, r.nested) {
			t.Run(r.doc+"/"+name, func(t *testing.T) {
				err := r.read(in)
				if err == nil {
					t.Fatal("accepted")
				}
				if !strings.Contains(err.Error(), r.doc) {
					t.Fatalf("error %q does not name the %s document", err, r.doc)
				}
			})
		}
	}
}

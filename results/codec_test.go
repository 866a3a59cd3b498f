package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"sync"
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

// decodeStrictRef is the strict reader DecodeStrict replaced, kept as its
// reference: the same decoder, but the trailing-data check asks Token for
// the next token, which refills the decoder's buffer past the value.
func decodeStrictRef(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the JSON value")
	}
	return nil
}

// fuzzDoc is a versioned document for FuzzDecodeDocMatchesDecoder: a
// schema, typed and untyped fields, a nested object that refuses unknown
// fields too.
type fuzzDoc struct {
	Schema    string         `json:"schema"`
	Backend   string         `json:"backend,omitempty"`
	Seed      uint64         `json:"seed,omitempty"`
	Synthetic *fuzzSynthetic `json:"synthetic,omitempty"`
	Params    map[string]any `json:"params,omitempty"`
	Rows      []any          `json:"rows,omitempty"`
}

type fuzzSynthetic struct {
	Pattern string `json:"pattern"`
	Ranks   int    `json:"ranks"`
}

// FuzzDecodeDocMatchesDecoder holds DecodeStrict, and DecodeDoc through
// it, to decodeStrictRef: on arbitrary bytes, decoded into an untyped
// value and into a document struct, both accept or both refuse with the
// same error (so trailing data is still refused as "trailing data"), and
// what both accept decodes to equal values.
func FuzzDecodeDocMatchesDecoder(f *testing.F) {
	const spec = `{"schema":"atlahs.spec/v1","synthetic":{"pattern":"ring","ranks":2}}`
	// The trailing-* rows of sim's codec tests, of TestDecodeModelRejects
	// and of malformed.
	for _, in := range []string{
		spec + " {}", spec + "x", spec + "}", spec + "]", spec + " ]]]", spec + spec,
		spec + "{}", spec + "garbage", "",
	} {
		f.Add([]byte(in))
	}
	// What may follow a value: JSON's four white space bytes and others
	// that are not, a second value, a number cut by the end of input.
	for _, in := range []string{
		spec, spec + " \t\r\n", spec + "\n\n  ", spec + "\v", spec + "\f", spec + "\u00a0", spec + "\x00",
		`{"schema":"atlahs.spec/v1","seed":12,"params":{"a":1.5e3,"b":[null,true]}} `, "1", "1 2", "12 ", "[1]\n", `"s"x`, "null",
		`{"schema":"atlahs.spec/v1","bogus":1}`, `{"schema":"atlahs.spec/v1","synthetic":{"ranks":2,"bogus":1}} x`,
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var got, want any
		err, wantErr := DecodeStrict(b, &got), decodeStrictRef(b, &want)
		if errString(err) != errString(wantErr) {
			t.Fatalf("DecodeStrict: %v; the reference: %v", err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeStrict read %#v; the reference %#v", got, want)
		}
		var gotDoc, wantDoc fuzzDoc
		err = DecodeDoc(b, "spec", "atlahs.spec/v1", &gotDoc)
		if wantErr = decodeStrictRef(b, &wantDoc); wantErr != nil {
			wantErr = fmt.Errorf("decoding spec: %w", wantErr)
		} else if wantDoc.Schema != "atlahs.spec/v1" {
			wantErr = fmt.Errorf("unknown spec schema %q (want %q)", wantDoc.Schema, "atlahs.spec/v1")
		}
		if errString(err) != errString(wantErr) {
			t.Fatalf("DecodeDoc: %v; the reference: %v", err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(gotDoc, wantDoc) {
			t.Fatalf("DecodeDoc read %+v; the reference %+v", gotDoc, wantDoc)
		}
	})
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestEncodeDocConcurrently: goroutines render documents through the kept
// encoders at once, a document over docKeep among them; every call's
// bytes equal MarshalDoc's, and both equal json.MarshalIndent's with a
// newline.
func TestEncodeDocConcurrently(t *testing.T) {
	docs := []any{
		jsonModel{Schema: ModelSchema, WorkloadModel: *testModel()},
		sampleSnapshot(),
		map[string]any{"schema": MetaSchema, "html": "<a & b>", "line": "\u2028", "n": 1.5e-7},
		fuzzDoc{Schema: "atlahs.spec/v1", Synthetic: &fuzzSynthetic{Pattern: "ring", Ranks: 4}},
		[]string{"<&>", strings.Repeat("x", docKeep)},
	}
	want := make([][]byte, len(docs))
	for i, d := range docs {
		b, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append(b, '\n')
	}
	const goroutines, rounds = 4, 10
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range rounds {
				k := (g + i) % len(docs)
				buf.Reset()
				if err := EncodeDoc(&buf, docs[k]); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf.Bytes(), want[k]) {
					t.Errorf("goroutine %d, round %d: EncodeDoc of document %d differs from json.MarshalIndent's bytes", g, i, k)
					return
				}
				b, err := MarshalDoc(docs[k])
				if err != nil || !bytes.Equal(b, want[k]) {
					t.Errorf("goroutine %d, round %d: MarshalDoc of document %d differs from json.MarshalIndent's bytes (%v)", g, i, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestKeptDocEncoderIsBounded: an encoder that rendered a document over
// docKeep is dropped, not kept; one that rendered a smaller one is kept.
func TestKeptDocEncoderIsBounded(t *testing.T) {
	if _, err := MarshalDoc("warm"); err != nil {
		t.Fatal(err)
	}
	n := docEncoders.Len()
	if n == 0 {
		t.Fatal("no encoder kept after rendering a small document")
	}
	if _, err := MarshalDoc(strings.Repeat("x", docKeep)); err != nil {
		t.Fatal(err)
	}
	if got := docEncoders.Len(); got != n-1 {
		t.Fatalf("%d encoders kept after rendering a document over docKeep, want %d", got, n-1)
	}
}

package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"

	"atlahs/internal/registry"
)

// Every versioned JSON document of the toolchain — the atlahs.*/v1 schemas
// of this package, sim, internal/service and internal/analyze — is read by
// DecodeDoc and written by EncodeDoc or MarshalDoc through one kept
// json.Encoder (a sweep by AppendJSON, which writes MarshalDoc's form
// without encoding/json), so all of them follow one strictness rule and
// one canonical form.

// DecodeStrict reads exactly one JSON value from b into v. Numbers land in
// untyped (any) fields as json.Number, an object field that v's type does
// not declare is an error, and so is anything after the value but white
// space (space, tab, CR, LF: what encoding/json skips between tokens).
// What follows the value is checked in b itself, so the decoder reads no
// further than the value.
func DecodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	for _, c := range b[dec.InputOffset():] {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return fmt.Errorf("trailing data after the JSON value")
		}
	}
	return nil
}

// DecodeDoc reads one versioned document from b into v through
// DecodeStrict and then checks the document's schema string against
// schema. v points to a struct whose Schema field holds that string; doc
// names the document in errors.
func DecodeDoc(b []byte, doc, schema string, v any) error {
	if err := DecodeStrict(b, v); err != nil {
		return fmt.Errorf("decoding %s: %w", doc, err)
	}
	if got := reflect.ValueOf(v).Elem().FieldByName("Schema").String(); got != schema {
		return fmt.Errorf("unknown %s schema %q (want %q)", doc, got, schema)
	}
	return nil
}

// readDoc reads r to its end and decodes the bytes through DecodeDoc: the
// form of the readers whose API takes an io.Reader.
func readDoc(r io.Reader, doc, schema string, v any) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("decoding %s: %w", doc, err)
	}
	return DecodeDoc(b, doc, schema, v)
}

// MarshalDoc renders v in the canonical document form: JSON indented by
// two spaces per level, HTML characters escaped, followed by a newline
// (json.MarshalIndent's bytes and a newline). The same value always
// renders to the same bytes. The result is allocated at its exact length;
// the rendering goes through the kept encoder (see encodeDoc).
func MarshalDoc(v any) ([]byte, error) {
	var out []byte
	err := encodeDoc(v, func(doc []byte) error {
		out = make([]byte, len(doc))
		copy(out, doc)
		return nil
	})
	return out, err
}

// EncodeDoc writes v to w in the form MarshalDoc renders, in one Write.
func EncodeDoc(w io.Writer, v any) error {
	return encodeDoc(v, func(doc []byte) error {
		_, err := w.Write(doc)
		return err
	})
}

// docEncoder is the kept encoder every document writer goes through: a
// json.Encoder set to MarshalDoc's form, whose one Write per document
// lands in doc. The encoder keeps the buffer it indents into from one
// document to the next, so rendering a document allocates only what
// encoding/json's marshalling does. Its Write never fails, so the encoder
// never holds a write error.
type docEncoder struct {
	enc *json.Encoder
	doc []byte
}

func (d *docEncoder) Write(p []byte) (int, error) {
	d.doc = p
	return len(p), nil
}

// docEncoders keeps the encoders, one per document rendered at the same
// time, each with a buffer as large as the largest document it rendered
// up to docKeep.
var docEncoders registry.Stock[docEncoder]

// docKeep bounds what a kept encoder's buffer holds: an encoder that
// rendered a larger document is dropped rather than kept.
const docKeep = 1 << 20

// encodeDoc renders v through a kept encoder and hands the document to
// use, which must not keep it.
func encodeDoc(v any, use func(doc []byte) error) error {
	d := docEncoders.Take()
	if d.enc == nil {
		d.enc = json.NewEncoder(d)
		d.enc.SetIndent("", "  ")
	}
	err := d.enc.Encode(v)
	if err == nil {
		err = use(d.doc)
	}
	if len(d.doc) <= docKeep {
		d.doc = nil
		docEncoders.Put(d)
	}
	return err
}

// orNil returns s, or nil when s is empty. omitempty writes both alike, so
// decoders keep the nil form and decode(encode(x)) equals x.
func orNil[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return nil
	}
	return s
}

package results

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
)

// Every versioned JSON document of the toolchain — the atlahs.*/v1 schemas
// of this package, sim, internal/service and internal/analyze — is read by
// DecodeDoc and written by EncodeDoc or MarshalDoc, so all of them follow
// one strictness rule and one canonical form.

// DecodeStrict reads exactly one JSON value from r into v. Numbers land in
// untyped (any) fields as json.Number, an object field that v's type does
// not declare is an error, and so is anything after the value but white
// space.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
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

// DecodeDoc reads one versioned document into v through DecodeStrict and
// then checks the document's schema string against schema. v points to a
// struct whose Schema field holds that string; doc names the document in
// errors.
func DecodeDoc(r io.Reader, doc, schema string, v any) error {
	if err := DecodeStrict(r, v); err != nil {
		return fmt.Errorf("decoding %s: %w", doc, err)
	}
	if got := reflect.ValueOf(v).Elem().FieldByName("Schema").String(); got != schema {
		return fmt.Errorf("unknown %s schema %q (want %q)", doc, got, schema)
	}
	return nil
}

// MarshalDoc renders v in the canonical document form: JSON indented by
// two spaces per level, followed by a newline. The same value always
// renders to the same bytes.
func MarshalDoc(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// EncodeDoc writes v to w in the form MarshalDoc renders.
func EncodeDoc(w io.Writer, v any) error {
	b, err := MarshalDoc(v)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
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

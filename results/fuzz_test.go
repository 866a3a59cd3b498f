package results

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzSweepRoundTrip feeds arbitrary bytes to DecodeJSON, the reader of
// artifacts that arrive from outside (a restarted service's store,
// `atlahs-analyze diff`): nothing panics, and any
// sweep it accepts re-encodes canonically and decodes back DeepEqual.
func FuzzSweepRoundTrip(f *testing.F) {
	bare := NewSweep("bare", "", "")
	bare.AddColumn("n", Int, "")
	for _, s := range []*Sweep{sample(), bare, storeSweep("r_0a1b2c3d4e5f6789")} {
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Empty collections decode to the nil form omitempty writes them from.
	f.Add([]byte(`{"schema":"atlahs.results/v1","name":"s","params":{},"columns":[{"name":"n","kind":"int"}],"rows":[],"derived":{},"notes":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data,
			func(b []byte) (*Sweep, error) { return DecodeJSON(bytes.NewReader(b)) },
			func(b *bytes.Buffer, s *Sweep) error { return EncodeJSON(b, s) })
	})
}

// roundTrip checks one fuzz input against a codec: rejected input just
// has to fail cleanly; accepted input decodes, encodes and decodes again
// to an equal value, and its canonical encoding is stable.
func roundTrip[T any](t *testing.T, data []byte, decode func([]byte) (T, error), encode func(*bytes.Buffer, T) error) {
	v1, err := decode(data)
	if err != nil {
		return
	}
	var enc1 bytes.Buffer
	if err := encode(&enc1, v1); err != nil {
		t.Fatalf("decoded document does not re-encode: %v", err)
	}
	v2, err := decode(enc1.Bytes())
	if err != nil {
		t.Fatalf("encoded document does not re-decode: %v\n%s", err, enc1.Bytes())
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Fatalf("round trip changed the document:\n%#v\nvs\n%#v", v1, v2)
	}
	var enc2 bytes.Buffer
	if err := encode(&enc2, v2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
		t.Fatalf("re-encoding is not canonical:\n%s\nvs\n%s", enc1.Bytes(), enc2.Bytes())
	}
}

package results

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// FuzzSweepRoundTrip feeds arbitrary bytes to DecodeJSON, the reader of
// artifacts that arrive from outside (a restarted service's store,
// `atlahs-analyze diff`): nothing panics, and any
// sweep it accepts re-encodes canonically and decodes back DeepEqual.
// EncodeJSON is held to the encoding/json writer it replaced
// (encodeJSONRef): on every sweep the input decodes to, and on one built
// from its raw bytes (strings from any bytes, floats from any bits), both
// refuse or both write the same bytes. isName is held to the pattern it
// replaced on the raw input.
func FuzzSweepRoundTrip(f *testing.F) {
	bare := NewSweep("bare", "", "")
	bare.AddColumn("n", Int, "")
	for _, s := range []*Sweep{sample(), bare, storeSweep("r_0a1b2c3d4e5f6789"), serviceSweep(3), edgeSweep()} {
		var buf bytes.Buffer
		if err := encodeJSONRef(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Empty collections decode to the nil form omitempty writes them from.
	f.Add([]byte(`{"schema":"atlahs.results/v1","name":"s","params":{},"columns":[{"name":"n","kind":"int"}],"rows":[],"derived":{},"notes":[]}`))
	// Raw strings and float bits for rawSweep: HTML, control and invalid
	// UTF-8 bytes, the line separators; -0, 1e-7 and MaxFloat64 as bits.
	f.Add([]byte("<a&b>\x01\t\x7f\xff\xfe\u2028\u2029\"q\"\\"))
	f.Add(binary.LittleEndian.AppendUint64([]byte("neg_zero"), math.Float64bits(math.Copysign(0, -1))))
	f.Add(binary.LittleEndian.AppendUint64([]byte("e_minus7"), math.Float64bits(1e-7)))
	f.Add(binary.LittleEndian.AppendUint64([]byte("maxfloat"), math.Float64bits(math.MaxFloat64)))
	f.Add([]byte("snake_case_9"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := isName(string(data)), namePattern.MatchString(string(data)); got != want {
			t.Fatalf("isName(%q) = %v, the pattern says %v", data, got, want)
		}
		matchRef(t, rawSweep(data))
		s, err := DecodeJSON(bytes.NewReader(data))
		if err == nil {
			matchRef(t, s)
		}
		roundTrip(t, data,
			func(b []byte) (*Sweep, error) { return DecodeJSON(bytes.NewReader(b)) },
			func(b *bytes.Buffer, s *Sweep) error { return EncodeJSON(b, s) })
	})
}

// namePattern is the regular expression isName replaced.
var namePattern = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// edgeSweep carries what encoding/json escapes or formats specially: HTML
// characters, control characters, invalid UTF-8, the line separators
// U+2028 and U+2029, and the floats -0, 1e-7, 1e21 and MaxFloat64.
func edgeSweep() *Sweep {
	s := NewSweep("edge", "<b>&amp;</b> \x01\t\x1f", "\xff\xfe bad utf-8")
	s.AddColumn("label", String, "\u00b5s<>").
		AddColumn("x", Float, "").
		AddColumn("a_first", Int, "")
	for _, x := range []float64{math.Copysign(0, -1), 1e-7, 1e-6, 1e21, 1e20, math.MaxFloat64, -math.SmallestNonzeroFloat64, 123456.789e-3} {
		s.MustAddRow("\u2028line\u2029sep \"q\" \\ \x7f", x, int64(-1))
	}
	s.SetParam("html", "<script>&</script>")
	s.SetParam("bytes", "\xc3\x28 \xed\xa0\x80")
	s.SetDerived("tiny", 1e-7)
	s.SetDerived("huge", 1e21)
	s.SetDerived("neg_zero", math.Copysign(0, -1))
	s.Note("tab\there", "\u2029")
	return s
}

// rawSweep builds a sweep from fuzz bytes: the input, without line breaks,
// as title, param value, unit and note; and one row per 8 bytes whose
// string cell is those raw bytes and whose float cell has them as bits.
// Raw line breaks and non-finite floats make some of these invalid.
func rawSweep(data []byte) *Sweep {
	line := strings.NewReplacer("\n", "", "\r", "").Replace(string(data))
	s := NewSweep("raw", line, line)
	s.AddColumn("text", String, strings.NewReplacer(":", "", ",", "").Replace(line)).
		AddColumn("bits", Float, "")
	s.SetParam("input", line)
	for len(data) >= 8 {
		x := math.Float64frombits(binary.LittleEndian.Uint64(data))
		s.Rows = append(s.Rows, Record{string(data[:8]), x})
		s.SetDerived(fmt.Sprintf("row_%d", len(s.Rows)), x)
		data = data[8:]
	}
	s.Note(line)
	return s
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

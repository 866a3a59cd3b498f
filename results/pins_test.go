package results

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"testing"
)

// encoderPins are the SHA-256 digests of what each encoder writes for the
// package's test fixtures. A codec rewrite must keep every one.
var encoderPins = map[string]string{
	"sweep":            "d0662af90d8e5ef40477fdd6a8ecbb16ca01f829d46fb5ec59abe28941e3e064",
	"sweep-bare":       "3a80bc3711e8e55a272d2c80744310fb299fc3f006c5678de4ca1c2298759e54",
	"sweep-csv":        "bf51f45a69cd3bc54aad06b0ee28064d511301c2bd420ac123980562ffe4f4f7",
	"sweep-csv-bare":   "3bfd496cfc550040a875f95fd2195926e33771b638614c5b22a341e2d4bbaa87",
	"sweep-list":       "78e0e258ec63025c975ff2ffab4af03d4faf24c859db8f37dad629e726716b9c",
	"sweep-list-empty": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
	"diff":             "d3ac81b63840bb2e201ac077bb0559907ee81a5caf0849220a3a1e73fced95a9",
	"diff-empty":       "8ad75d5b7fcdc172d022e6edb8dc066e07bddc438f4c5534e7f9c327d9610e68",
	"metrics":          "fb496427f294f1797ff06c779cacba56cdba0942b13decdf06a8720366791afc",
	"model":            "820c3176bfd3e1bd34bc9c0a180ffe7639697fbaf0d52731c0e9466b2dc43b26",
	"meta":             "1b1ff960a1fd25bb93a23539bc4e3b8021e43e4de6397e9095b9761bd74e391e",
}

// TestEncodersPinned: every encoder writes the pinned bytes.
func TestEncodersPinned(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bare := NewSweep("bare", "", "")
	bare.AddColumn("n", Int, "")
	bare.MustAddRow(int64(1))
	encoders := map[string]func(io.Writer) error{
		"sweep":          func(w io.Writer) error { return EncodeJSON(w, sample()) },
		"sweep-bare":     func(w io.Writer) error { return EncodeJSON(w, bare) },
		"sweep-csv":      func(w io.Writer) error { return EncodeCSV(w, sample()) },
		"sweep-csv-bare": func(w io.Writer) error { return EncodeCSV(w, bare) },
		"sweep-list": func(w io.Writer) error {
			return EncodeJSONList(w, []*Sweep{sample(), storeSweep("r_0a1b2c3d4e5f6789")})
		},
		"sweep-list-empty": func(w io.Writer) error { return EncodeJSONList(w, nil) },
		"diff":             func(w io.Writer) error { return EncodeDiffJSON(w, testDiff()) },
		"diff-empty": func(w io.Writer) error {
			return EncodeDiffJSON(w, &SweepDiff{A: "a1", B: "b1", RowsA: 2, RowsB: 2, Matched: 2})
		},
		"metrics": func(w io.Writer) error { return EncodeMetricsJSON(w, sampleSnapshot()) },
		"model":   func(w io.Writer) error { return EncodeModelJSON(w, testModel()) },
		"meta": func(w io.Writer) error {
			doc := struct {
				Schema string            `json:"schema"`
				Keys   []string          `json:"keys,omitempty"`
				Tags   map[string]string `json:"tags"`
				Ratio  float64           `json:"ratio"`
			}{"atlahs.runmeta/v1", []string{"k1", "k2"}, map[string]string{"b": "<&>", "a": "x"}, 0.1}
			if err := st.SaveMeta("run_one", doc); err != nil {
				return err
			}
			b, err := os.ReadFile(st.MetaPath("run_one"))
			if err != nil {
				return err
			}
			_, err = w.Write(b)
			return err
		},
	}
	for name, encode := range encoders {
		var buf bytes.Buffer
		if err := encode(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != encoderPins[name] {
			t.Errorf("%s: SHA-256 %s, pinned %s", name, got, encoderPins[name])
		}
	}
}

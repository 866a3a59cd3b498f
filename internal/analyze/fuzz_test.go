package analyze

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"atlahs/results"
)

// FuzzDiff diffs two sweeps decoded from fuzz bytes on fuzzed key
// columns. Diff never panics; a sweep diffed against itself changes
// nothing and gates nothing; and every diff Diff returns round-trips
// through the atlahs.diff/v1 codec.
func FuzzDiff(f *testing.F) {
	encode := func(s *results.Sweep) []byte {
		var buf bytes.Buffer
		if err := results.EncodeJSON(&buf, s); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	base := encode(pairSweep(f, "fig8_base", []int64{100, 200, 300}))
	head := pairSweep(f, "fig8_head", []int64{100, 240, 300})
	head.SetParam("mode", "full")
	f.Add(base, encode(head), "configuration")
	f.Add(base, encode(head), "")
	f.Add(base, base, "measured")
	f.Add(base, []byte("{}"), "configuration,nope")
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, keys string) {
		a, err := results.DecodeJSON(bytes.NewReader(rawA))
		if err != nil {
			return
		}
		b, err := results.DecodeJSON(bytes.NewReader(rawB))
		if err != nil {
			b = a
		}
		var opts DiffOptions
		if keys != "" {
			opts.Keys = strings.Split(keys, ",")
		}
		if self, err := Diff(a, a, opts); err == nil {
			if self.Changed != 0 {
				t.Errorf("a sweep against itself: %d changed rows", self.Changed)
			}
			if regs := (Gate{}).Diff(self); len(regs) != 0 {
				t.Errorf("a sweep against itself regressed: %v", regs)
			}
			roundTripDiff(t, self)
		}
		if d, err := Diff(a, b, opts); err == nil {
			roundTripDiff(t, d)
		}
	})
}

// roundTripDiff checks that d encodes, and decodes back to itself.
func roundTripDiff(t *testing.T, d *results.SweepDiff) {
	t.Helper()
	var buf bytes.Buffer
	if err := results.EncodeDiffJSON(&buf, d); err != nil {
		t.Fatalf("diff does not encode: %v", err)
	}
	back, err := results.DecodeDiffJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("encoded diff does not decode: %v\n%s", err, buf.Bytes())
	}
	if !reflect.DeepEqual(back, d) {
		t.Fatalf("round trip changed the diff:\n%#v\nvs\n%#v", back, d)
	}
}

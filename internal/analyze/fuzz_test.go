package analyze

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"atlahs/results"
)

// FuzzDiff diffs two sweeps decoded from fuzz bytes on fuzzed key
// columns. Diff never panics; a sweep diffed against itself changes
// nothing and gates nothing; and every diff Diff returns encodes as an
// atlahs.diff/v1 document. The last seeds move a float cell so far that
// its delta overflows, which Diff must refuse rather than return.
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
	for _, c := range nonFiniteMoves {
		f.Add(encode(floatSweep(f, "fig8_base", c.a)), encode(floatSweep(f, "fig8_head", c.b)), "")
	}
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
			encodes(t, self)
		}
		if d, err := Diff(a, b, opts); err == nil {
			encodes(t, d)
		}
	})
}

// encodes checks that d is a valid atlahs.diff/v1 document.
func encodes(t *testing.T, d *results.SweepDiff) {
	t.Helper()
	if err := results.EncodeDiffJSON(io.Discard, d); err != nil {
		t.Fatalf("diff does not encode: %v", err)
	}
}

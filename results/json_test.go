package results

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"testing"
)

// encodeJSONRef is the encoding/json writer AppendJSON replaced: the sweep
// as a struct whose rows are maps keyed by column name, through
// MarshalDoc. It is the reference FuzzSweepRoundTrip holds EncodeJSON to,
// byte for byte.
func encodeJSONRef(w io.Writer, s *Sweep) error {
	if err := s.Validate(); err != nil {
		return err
	}
	js := jsonSweep{
		Schema:  Schema,
		Name:    s.Name,
		Title:   s.Title,
		Mode:    s.Mode,
		Params:  s.Params,
		Columns: s.Columns,
		Rows:    make([]map[string]any, len(s.Rows)),
		Derived: s.Derived,
		Notes:   s.Notes,
	}
	for i, rec := range s.Rows {
		row := make(map[string]any, len(rec))
		for j, cell := range rec {
			row[s.Columns[j].Name] = cell
		}
		js.Rows[i] = row
	}
	return EncodeDoc(w, js)
}

// matchRef encodes s with EncodeJSON and with encodeJSONRef and fails
// unless both refuse it or both write the same bytes.
func matchRef(t *testing.T, s *Sweep) {
	t.Helper()
	var got, want bytes.Buffer
	err := EncodeJSON(&got, s)
	refErr := encodeJSONRef(&want, s)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("EncodeJSON error %v, encoding/json reference error %v", err, refErr)
	}
	if err == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("EncodeJSON wrote\n%s\nencoding/json reference wrote\n%s", got.Bytes(), want.Bytes())
	}
}

// serviceSweep is shaped like the artifact atlahsd stores for a run (its
// runSweep): a rank/end table of one row per rank, two params and six
// derived scalars.
func serviceSweep(ranks int) *Sweep {
	s := NewSweep("r_0a1b2c3d4e5f6789", "atlahs service run r_0a1b2c3d4e5f6789", "service")
	s.SetParam("backend", "lgs")
	s.SetParam("ranks", fmt.Sprint(ranks))
	s.AddColumn("rank", Int, "")
	s.AddColumn("end", Duration, "ps")
	for r := range ranks {
		s.MustAddRow(int64(r), int64(1_234_567_890+r*7_919))
	}
	for _, k := range []string{"runtime_ps", "ops", "events", "done_calcs", "done_sends", "done_recvs"} {
		s.SetDerived(k, float64(len(k))*1e9)
	}
	return s
}

// TestEncodeJSONAllocs: encoding a service run's artifact allocates its
// buffer and next to nothing else. Through encoding/json it allocated a
// map per row and the marshalled and indented copies of the document.
func TestEncodeJSONAllocs(t *testing.T) {
	s := serviceSweep(64)
	matchRef(t, s)
	allocs := testing.AllocsPerRun(20, func() {
		if err := EncodeJSON(io.Discard, s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("encoding a 64-rank service sweep allocated %.0f times, want at most 2", allocs)
	}
}

func BenchmarkEncodeJSON(b *testing.B) {
	s := serviceSweep(64)
	b.ReportAllocs()
	for b.Loop() {
		if err := EncodeJSON(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}

// TestJSONSizeFits: the buffer AppendJSON sizes up front holds a service
// run's artifact, and what it holds to spare does not grow with the rows.
func TestJSONSizeFits(t *testing.T) {
	for _, ranks := range []int{1, 16, 64, 1000} {
		s := serviceSweep(ranks)
		b, err := AppendJSON(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		if est := jsonSize(s); est < len(b) || est > len(b)+128 {
			t.Errorf("%d ranks: sized %d bytes for a %d-byte document", ranks, est, len(b))
		}
	}
	for _, v := range []int64{0, 9, 10, -1, -10, math.MaxInt64, math.MinInt64} {
		if got, want := intWidth(v), len(strconv.FormatInt(v, 10)); got != want {
			t.Errorf("intWidth(%d) = %d, want %d", v, got, want)
		}
	}
}

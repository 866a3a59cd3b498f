package nsys

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

func sampleReport() *Report {
	return &Report{
		NGPUs: 4,
		Comms: map[string][]int{
			"world": {0, 1, 2, 3},
			"pp":    {0, 2},
		},
		Records: []Record{
			{GPU: 0, Stream: 7, Kind: KindKernel, Name: "gemm", StartNs: 0, EndNs: 1000},
			{GPU: 0, Stream: 7, Kind: KindNCCL, Coll: CollAllReduce, Bytes: 1 << 20, Comm: "world", StartNs: 1000, EndNs: 3000},
			{GPU: 1, Stream: 7, Kind: KindNCCL, Coll: CollAllReduce, Bytes: 1 << 20, Comm: "world", StartNs: 900, EndNs: 3100},
			{GPU: 2, Stream: 7, Kind: KindNCCL, Coll: CollAllReduce, Bytes: 1 << 20, Comm: "world", StartNs: 950, EndNs: 3000},
			{GPU: 3, Stream: 7, Kind: KindNCCL, Coll: CollAllReduce, Bytes: 1 << 20, Comm: "world", StartNs: 1100, EndNs: 3050},
			{GPU: 0, Stream: 9, Kind: KindNCCL, Coll: CollSend, Bytes: 4096, Comm: "pp", Peer: 1, StartNs: 500, EndNs: 600},
			{GPU: 2, Stream: 9, Kind: KindNCCL, Coll: CollRecv, Bytes: 4096, Comm: "pp", Peer: 0, StartNs: 500, EndNs: 700},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := sampleReport().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	r := sampleReport()
	r.Records[0].GPU = 99
	if r.Validate() == nil {
		t.Fatal("bad GPU accepted")
	}
	r = sampleReport()
	r.Records[1].Comm = "nosuch"
	if r.Validate() == nil {
		t.Fatal("unknown comm accepted")
	}
	r = sampleReport()
	r.Records[1].Coll = "frobnicate"
	if r.Validate() == nil {
		t.Fatal("unknown collective accepted")
	}
	r = sampleReport()
	r.Records[5].Peer = 9
	if r.Validate() == nil {
		t.Fatal("bad peer accepted")
	}
	r = sampleReport()
	r.Records[0].EndNs = -5
	if r.Validate() == nil {
		t.Fatal("end<start accepted")
	}
	for _, rec := range []int{5, 6} {
		// a P2P record naming its own GPU's position as the peer
		r = sampleReport()
		r.Records[rec].Peer = r.Records[rec].GPU / 2
		if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "with itself") {
			t.Fatalf("self-%s accepted: %v", r.Records[rec].Coll, err)
		}
	}
	r = sampleReport()
	r.Comms["bad"] = []int{0, 0}
	if r.Validate() == nil {
		t.Fatal("duplicate comm member accepted")
	}
	r = sampleReport()
	// nccl record on a GPU outside its communicator
	r.Records[5].GPU = 1
	if r.Validate() == nil {
		t.Fatal("non-member nccl record accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	r := sampleReport()
	var buf bytes.Buffer
	n, err := r.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo returned %d, buffer has %d", n, buf.Len())
	}
	got, err := ParseBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NGPUs != r.NGPUs || !reflect.DeepEqual(got.Comms, r.Comms) || !reflect.DeepEqual(got.Records, r.Records) {
		t.Fatal("round trip mismatch")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseBytes([]byte("")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := ParseBytes([]byte(`{"format":"other","ngpus":1}`)); err == nil {
		t.Fatal("wrong format accepted")
	}
	if _, err := ParseBytes([]byte(`{"format":"atlahs-nsys-v1","ngpus":1}` + "\nnot json")); err == nil {
		t.Fatal("garbage record accepted")
	}
}

// TestParseSizesRecordsOnce: Records is allocated once, from the line
// count, and records are decoded in place with their strings interned —
// so parsing an N-line report allocates a constant number of times, not
// once (or five times) per line.
func TestParseSizesRecordsOnce(t *testing.T) {
	report := func(n int) []byte {
		r := sampleReport()
		for i := len(r.Records); i < n; i++ {
			start := int64(4000 + 10*i)
			r.Records = append(r.Records, Record{GPU: i % 4, Stream: 7, Kind: KindKernel, Name: "gemm", StartNs: start, EndNs: start + 5})
		}
		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	allocs := func(n int) float64 {
		b := report(n)
		rep, err := ParseBytes(b)
		if err != nil || len(rep.Records) != n || cap(rep.Records) > n+1 {
			t.Fatalf("%d-record report parsed to %d records (cap %d): %v", n, len(rep.Records), cap(rep.Records), err)
		}
		return testing.AllocsPerRun(5, func() { _, _ = ParseBytes(b) })
	}
	small, large := allocs(500), allocs(8000)
	if large > small+2 || large > 100 {
		t.Fatalf("parsing allocated %.0f times for 500 records and %.0f for 8000; want a constant", small, large)
	}
	// a report held from a larger parse keeps its array for a smaller one
	var rep Report
	if err := rep.Parse(report(8000)); err != nil {
		t.Fatal(err)
	}
	array := &rep.Records[0]
	if err := rep.Parse(report(500)); err != nil || len(rep.Records) != 500 || &rep.Records[0] != array {
		t.Fatalf("reparsing 500 records into a report of 8000: %d records, array kept %v, %v", len(rep.Records), &rep.Records[0] == array, err)
	}
}

// decodeReference is the record reader the scanner replaced, kept as the
// reference FuzzParseBytesMatchesDecoder holds the scanner to: parse with
// each record decoded by encoding/json's Decoder.
func decodeReference(b []byte) (*Report, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	var hdr header
	if err := dec.Decode(&hdr); err != nil {
		return nil, err
	}
	if hdr.Format != formatName {
		return nil, fmt.Errorf("unknown format %q", hdr.Format)
	}
	rep := &Report{NGPUs: hdr.NGPUs, Comms: hdr.Comms, Records: []Record{}}
	strs := interned{}
	for {
		var rec Record
		w := wireRecord{Record: &rec}
		if err := dec.Decode(&w); err == io.EOF {
			return rep, nil
		} else if err != nil {
			return nil, err
		}
		rec.Kind, rec.Name, rec.Coll, rec.Comm = strs.of(w.Kind), strs.of(w.Name), strs.of(w.Coll), strs.of(w.Comm)
		rep.Records = append(rep.Records, rec)
	}
}

// wireRecord decodes one record in place. The numeric fields go straight
// into the embedded Record; its four string fields are shadowed by the
// ones declared here (encoding/json prefers the shallower of two fields
// with one name), which keep the raw JSON for interned to decode.
type wireRecord struct {
	*Record
	Kind rawString `json:"kind"`
	Name rawString `json:"name"`
	Coll rawString `json:"coll"`
	Comm rawString `json:"comm"`
}

// rawString is a JSON string token, quotes and escapes included, decoded
// the way encoding/json decodes into a string field: null leaves it as it
// is, any other JSON type is an error.
type rawString []byte

func (r *rawString) UnmarshalJSON(b []byte) error {
	switch b[0] {
	case 'n':
	case '"':
		*r = append((*r)[:0], b...)
	default:
		return &json.UnmarshalTypeError{Value: "non-string", Type: reflect.TypeFor[string]()}
	}
	return nil
}

// FuzzParseBytesMatchesDecoder: whatever the bytes, the scanner and
// encoding/json either both reject them or both read the same report, and
// parsing into a report that held another gives what ParseBytes gives.
// The seed corpus in testdata holds the nsys rows of
// sim.TestConvertedSchedulesEncodeAsBefore's hand-written list, which
// sim.TestNsysRowsSeedParseFuzzer keeps in step with the list.
func FuzzParseBytesMatchesDecoder(f *testing.F) {
	var buf bytes.Buffer
	if _, err := sampleReport().WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	fixture := buf.Bytes()
	f.Add(fixture)
	f.Fuzz(func(t *testing.T, b []byte) {
		got := new(Report)
		err := parse(got, b)
		want, wantErr := decodeReference(b)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("scanner: %v; encoding/json: %v", err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("scanner read %+v; encoding/json %+v", got, want)
		}
		fresh, err := ParseBytes(b)
		var dirty Report
		if err := dirty.Parse(fixture); err != nil {
			t.Fatal(err)
		}
		if reuseErr := dirty.Parse(b); (err == nil) != (reuseErr == nil) || err != nil && err.Error() != reuseErr.Error() {
			t.Fatalf("ParseBytes: %v; Parse into a held report: %v", err, reuseErr)
		}
		if err == nil && !reflect.DeepEqual(&dirty, fresh) {
			t.Fatalf("Parse into a held report read %+v; ParseBytes %+v", dirty, *fresh)
		}
	})
}

package synth

import (
	"bytes"
	"reflect"
	"testing"

	"atlahs/internal/goal"
	"atlahs/internal/workload/micro"
	"atlahs/results"
)

// FuzzModelRoundTrip feeds arbitrary bytes through the atlahs.model/v1
// codec: anything that decodes must re-encode canonically and survive a
// second decode unchanged. Seeds cover every op-kind mix the micro
// generators produce (pure comm, comm+calc, skewed fan-in).
func FuzzModelRoundTrip(f *testing.F) {
	for _, s := range []*goal.Schedule{
		micro.Ring(8, 4096),
		micro.AllToAll(8, 1<<20),
		micro.Incast(8, 7, 65536),
		micro.Permutation(8, 512, 3),
		micro.UniformRandom(8, 100, 2048, 5),
		micro.BulkSynchronous(8, 4, 8192, 1500),
	} {
		m, err := Mine(s, "seed")
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := results.EncodeModelJSON(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Empty lists decode to the nil form omitempty writes them from.
	f.Add([]byte(`{"schema":"atlahs.model/v1","source_ranks":1,"source_ops":1,"depth_mean":0,"depth_max":0,"phases":1,` +
		`"calc":{"count":0,"mean":0,"std":0,"min":0,"max":0,"hist":[]},"calc_ns_per_rank":{"count":0,"mean":0,"std":0,"min":0,"max":0},` +
		`"sends_per_rank":{"count":0,"mean":0,"std":0,"min":0,"max":0},"sizes":{"count":0,"mean":0,"std":0,"min":0,"max":0,"hist":[]},` +
		`"classes":[],"calc_comm_ratio":0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := results.DecodeModelJSON(bytes.NewReader(data))
		if err != nil {
			return // invalid input is allowed to be rejected
		}
		var enc bytes.Buffer
		if err := results.EncodeModelJSON(&enc, m); err != nil {
			t.Fatalf("decoded model does not re-encode: %v", err)
		}
		m2, err := results.DecodeModelJSON(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("encoded model does not re-decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed the model:\n%+v\nvs\n%+v", m, m2)
		}
		var enc2 bytes.Buffer
		if err := results.EncodeModelJSON(&enc2, m2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatal("re-encoding is not canonical")
		}
	})
}

package mpitrace

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"atlahs/internal/xrand"
)

func sampleTrace() *Trace {
	t := New(2)
	t.Append(0, Event{Type: Init, Peer: -1, Root: -1, Start: 0, End: 100})
	t.Append(0, Event{Type: Send, Peer: 1, Bytes: 4096, Tag: 7, Root: -1, Start: 1000, End: 1100})
	t.Append(0, Event{Type: Irecv, Peer: 1, Bytes: 64, Tag: 8, Req: 3, Root: -1, Start: 1200, End: 1210})
	t.Append(0, Event{Type: Wait, Peer: -1, Req: 3, Root: -1, Start: 1300, End: 5000})
	t.Append(0, Event{Type: Allreduce, Peer: -1, Bytes: 8192, Root: -1, Start: 5100, End: 9000})
	t.Append(0, Event{Type: Finalize, Peer: -1, Root: -1, Start: 9100, End: 9200})
	t.Append(1, Event{Type: Init, Peer: -1, Root: -1, Start: 0, End: 90})
	t.Append(1, Event{Type: Recv, Peer: 0, Bytes: 4096, Tag: 7, Root: -1, Start: 500, End: 1500})
	t.Append(1, Event{Type: Isend, Peer: 0, Bytes: 64, Tag: 8, Req: 1, Root: -1, Start: 1600, End: 1650})
	t.Append(1, Event{Type: Allreduce, Peer: -1, Bytes: 8192, Root: -1, Start: 1700, End: 9000})
	t.Append(1, Event{Type: Finalize, Peer: -1, Root: -1, Start: 9100, End: 9150})
	return t
}

func TestValidateOK(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	tr := New(1)
	tr.Append(0, Event{Type: Send, Peer: 5, Bytes: 1, Start: 0, End: 1})
	if tr.Validate() == nil {
		t.Fatal("bad peer accepted")
	}
	tr2 := New(1)
	tr2.Append(0, Event{Type: Init, Peer: -1, Start: 100, End: 50})
	if tr2.Validate() == nil {
		t.Fatal("end<start accepted")
	}
	tr3 := New(1)
	tr3.Append(0, Event{Type: Init, Peer: -1, Start: 100, End: 200})
	tr3.Append(0, Event{Type: Finalize, Peer: -1, Start: 50, End: 300})
	if tr3.Validate() == nil {
		t.Fatal("non-monotonic starts accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Events, got.Events) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", tr.Events, got.Events)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"rank 0 {\n}",
		"mpitrace nranks 0",
		"mpitrace nranks 1\nrank 5 {\n}",
		"mpitrace nranks 1\nMPI_Init t=0:1",
		"mpitrace nranks 1\nrank 0 {\nMPI_Frobnicate t=0:1\n}",
		"mpitrace nranks 1\nrank 0 {\nMPI_Init t=zero:1\n}",
		"mpitrace nranks 1\nrank 0 {\nMPI_Init wat\n}",
		"mpitrace nranks 2\nrank 0 {\nMPI_Send dst=9 bytes=1 tag=0 t=0:1\n}",
	}
	for _, src := range cases {
		if _, err := ParseBytes([]byte(src)); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestOpTypeMetadata(t *testing.T) {
	if Send.String() != "MPI_Send" || Allreduce.String() != "MPI_Allreduce" {
		t.Fatal("names wrong")
	}
	if !Allreduce.IsCollective() || !Barrier.IsCollective() {
		t.Fatal("collectives misclassified")
	}
	if Send.IsCollective() || Wait.IsCollective() {
		t.Fatal("p2p misclassified")
	}
}

// Property: randomly generated valid traces round trip through text.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := rng.Intn(4) + 1
		tr := New(n)
		for r := 0; r < n; r++ {
			ts := int64(0)
			for k := 0; k < rng.Intn(10); k++ {
				start := ts + rng.Int63n(1000)
				end := start + rng.Int63n(1000)
				ts = end
				ev := Event{Peer: -1, Root: -1, Start: start, End: end}
				switch rng.Intn(4) {
				case 0:
					ev.Type = Send
					if n == 1 {
						ev.Type = Init
						break
					}
					p := rng.Intn(n - 1)
					if p >= r {
						p++
					}
					ev.Peer = p
					ev.Bytes = rng.Int63n(1 << 20)
					ev.Tag = int32(rng.Intn(100))
				case 1:
					ev.Type = Allreduce
					ev.Bytes = rng.Int63n(1 << 20)
				case 2:
					ev.Type = Bcast
					ev.Bytes = rng.Int63n(1 << 20)
					ev.Root = rng.Intn(n)
				default:
					ev.Type = Init
				}
				tr.Append(r, ev)
			}
		}
		if tr.Validate() != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ParseBytes(buf.Bytes())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tr.Events, got.Events)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

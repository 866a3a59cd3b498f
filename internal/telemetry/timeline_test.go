package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"atlahs/internal/simtime"
)

// TestTimelineEncodeDeterministic pins the exact trace bytes for a
// small recording, with events recorded out of timestamp order and two
// tied on time and rank: Encode sorts by full event content, so the
// bytes never depend on append order.
func TestTimelineEncodeDeterministic(t *testing.T) {
	encode := func(reversed bool) string {
		tl := NewTimeline(0)
		us := func(n int64) simtime.Time { return simtime.Time(0).Add(simtime.Duration(n) * simtime.Microsecond) }
		rec := []func(){
			func() { tl.Op(0, "send", us(1)) },
			func() { tl.Op(0, "calc", us(1)) },
			func() { tl.Op(1, "send", us(2)) },
		}
		if reversed {
			for i := len(rec) - 1; i >= 0; i-- {
				rec[i]()
			}
		} else {
			for _, f := range rec {
				f()
			}
		}
		var b bytes.Buffer
		if err := tl.Encode(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := strings.Join([]string{
		`{"displayTimeUnit":"ns","traceEvents":[`,
		`{"name":"process_name","ph":"M","pid":0,"tid":0,"ts":0,"args":{"name":"atlahs"}},`,
		`{"name":"thread_name","ph":"M","pid":0,"tid":0,"ts":0,"args":{"name":"rank 0"}},`,
		`{"name":"thread_name","ph":"M","pid":0,"tid":1,"ts":0,"args":{"name":"rank 1"}},`,
		`{"name":"calc","ph":"i","pid":0,"tid":0,"ts":1,"s":"t"},`,
		`{"name":"send","ph":"i","pid":0,"tid":0,"ts":1,"s":"t"},`,
		`{"name":"send","ph":"i","pid":0,"tid":1,"ts":2,"s":"t"}`,
		`]}`,
		``,
	}, "\n")
	if got := encode(false); got != want {
		t.Fatalf("encode:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got := encode(true); got != want {
		t.Fatal("encode depends on recording order")
	}
}

// TestTimelineShape checks the document parses as the Chrome
// trace-event envelope every consumer (Perfetto, internal/e2e's
// observability test) expects.
func TestTimelineShape(t *testing.T) {
	tl := NewTimeline(0)
	us := func(n int64) simtime.Time { return simtime.Time(0).Add(simtime.Duration(n) * simtime.Microsecond) }
	tl.Op(2, "calc", us(1))
	tl.Op(2, "recv", us(2))
	var b bytes.Buffer
	if err := tl.Encode(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int32   `json:"tid"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 { // process_name + thread_name + two ops
		t.Fatalf("got %d trace events, want 4", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ph == "" {
			t.Fatalf("trace event missing name/ph: %+v", ev)
		}
	}
}

// TestTimelineCapDrops pins the bounded-recording contract: events past
// the cap are dropped and counted, and the drop count lands in the
// encoded document's otherData.
func TestTimelineCapDrops(t *testing.T) {
	tl := NewTimeline(2)
	for i := int64(0); i < 5; i++ {
		tl.Op(0, "calc", simtime.Time(0).Add(simtime.Duration(i)*simtime.Microsecond))
	}
	if got := tl.Len(); got != 2 {
		t.Fatalf("len = %d, want 2", got)
	}
	if got := tl.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	var b bytes.Buffer
	if err := tl.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"otherData":{"droppedEvents":"3"}`) {
		t.Fatalf("encoded trace does not carry the drop count:\n%s", b.String())
	}
	tl.Reset()
	if tl.Len() != 0 || tl.Dropped() != 0 {
		t.Fatal("Reset did not clear the recorder")
	}
}

// TestTimelineConcurrentEncodes: Encode only reads the recorder, so once
// recording is over several goroutines may encode one Timeline at once
// (atlahsd serves a finished run's trace to every client that asks), and
// each gets the same bytes.
func TestTimelineConcurrentEncodes(t *testing.T) {
	tl := NewTimeline(0)
	for i := int64(0); i < 64; i++ {
		tl.Op(int(i%4), "send", simtime.Time(0).Add(simtime.Duration(64-i)*simtime.Microsecond))
	}
	var want bytes.Buffer
	if err := tl.Encode(&want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]bytes.Buffer, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := tl.Encode(&got[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if !bytes.Equal(got[i].Bytes(), want.Bytes()) {
			t.Errorf("encode %d: %d B, differs from the first encode's %d B", i, got[i].Len(), want.Len())
		}
	}
}

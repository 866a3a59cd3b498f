package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"atlahs/internal/simtime"
)

// DefaultTimelineEvents is the recorder's default event capacity. An
// op instant is 32 bytes held and about 65 encoded, so the default
// bounds a runaway trace at tens of megabytes; events past the cap are
// dropped and counted rather than grown without bound.
const DefaultTimelineEvents = 1 << 18

// Timeline records a run's op completions, one instant per GOAL op on
// its rank's row, and encodes them as Chrome trace-event JSON, the
// format Perfetto and chrome://tracing load directly. Timestamps are
// *simulated* time (GOAL picoseconds rendered as trace microseconds),
// so the same spec always encodes the same timeline bytes however fast
// the host: the timeline shows where simulated time goes, which is the
// question ATLAHS answers.
//
// A Timeline is written by one goroutine, the one that runs the run:
// recording appends a small struct, and it is opt-in, so runs without a
// Timeline pay nothing. Encode only reads, so once the run is over any
// number of goroutines may encode the same Timeline at once.
type Timeline struct {
	cap     int
	events  []traceEvent
	dropped uint64
}

// traceEvent is one recorded op instant, kept in compact pre-encoding
// form.
type traceEvent struct {
	name string
	tid  int32
	ts   int64 // simulated ps
}

// NewTimeline returns a recorder holding at most maxEvents events
// (<= 0 means DefaultTimelineEvents). Events recorded past the cap are
// dropped and counted (Dropped), so a capped recorder keeps the first
// maxEvents events in recording order.
func NewTimeline(maxEvents int) *Timeline {
	if maxEvents <= 0 {
		maxEvents = DefaultTimelineEvents
	}
	return &Timeline{cap: maxEvents}
}

// record appends one event under the cap.
func (t *Timeline) record(ev traceEvent) {
	if len(t.events) >= t.cap {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// Op records one GOAL op completion as an instant on the op's rank row.
func (t *Timeline) Op(rank int, kind string, at simtime.Time) {
	t.record(traceEvent{name: kind, tid: int32(rank), ts: int64(at)})
}

// Len reports the number of recorded events.
func (t *Timeline) Len() int { return len(t.events) }

// Dropped reports how many events the cap discarded.
func (t *Timeline) Dropped() uint64 { return t.dropped }

// Reset discards all recorded events.
func (t *Timeline) Reset() {
	t.events = t.events[:0]
	t.dropped = 0
}

// jsonTraceEvent is the Chrome trace-event wire shape (ts in trace
// microseconds).
type jsonTraceEvent struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	Pid  int        `json:"pid"`
	Tid  int32      `json:"tid"`
	Ts   float64    `json:"ts"`
	S    string     `json:"s,omitempty"`
	Args *traceArgs `json:"args,omitempty"`
}

// traceArgs carries a metadata event's name.
type traceArgs struct {
	Name string `json:"name,omitempty"`
}

// psToUs converts simulated picoseconds to trace microseconds.
func psToUs(ps int64) float64 { return float64(ps) / 1e6 }

// Encode writes the timeline as one Chrome trace-event JSON document:
// process/thread metadata first, then every recorded event sorted by
// its full content (timestamp, thread, name), a total order over
// distinct events. It sorts a copy and leaves the recorder untouched.
func (t *Timeline) Encode(w io.Writer) error {
	events := append([]traceEvent(nil), t.events...)

	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		if a.tid != b.tid {
			return a.tid < b.tid
		}
		return a.name < b.name
	})

	// Thread metadata for every row that appears, sorted by tid.
	seen := map[int32]bool{}
	var tids []int32
	for _, ev := range events {
		if !seen[ev.tid] {
			seen[ev.tid] = true
			tids = append(tids, ev.tid)
		}
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })

	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev jsonTraceEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if first {
			sep = ""
			first = false
		}
		if _, err := io.WriteString(w, sep); err != nil {
			return err
		}
		_, err = w.Write(b)
		return err
	}
	if err := emit(jsonTraceEvent{Name: "process_name", Ph: "M", Args: &traceArgs{Name: "atlahs"}}); err != nil {
		return err
	}
	for _, tid := range tids {
		if err := emit(jsonTraceEvent{Name: "thread_name", Ph: "M", Tid: tid, Args: &traceArgs{Name: fmt.Sprintf("rank %d", tid)}}); err != nil {
			return err
		}
	}
	for _, ev := range events {
		if err := emit(jsonTraceEvent{Name: ev.name, Ph: "i", Tid: ev.tid, Ts: psToUs(ev.ts), S: "t"}); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n]"); err != nil {
		return err
	}
	if t.dropped > 0 {
		if _, err := fmt.Fprintf(w, ",\"otherData\":{\"droppedEvents\":\"%d\"}", t.dropped); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}

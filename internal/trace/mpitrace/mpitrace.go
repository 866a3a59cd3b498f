// Package mpitrace defines the liballprof-style MPI execution trace format
// used by the HPC arm of the toolchain (paper §3.1.1). A trace records,
// per rank, the sequence of MPI calls with their arguments and start/end
// timestamps; Schedgen (internal/trace/schedgen) later infers computation
// from the gaps between consecutive calls and substitutes collectives with
// point-to-point algorithms.
//
// The on-disk form is a line-oriented text file:
//
//	mpitrace nranks 4
//	rank 0 {
//	MPI_Init t=0:1000
//	MPI_Send dst=1 bytes=4096 tag=7 t=5000:5200
//	MPI_Irecv src=1 bytes=4096 tag=8 req=1 t=5300:5320
//	MPI_Wait req=1 t=5400:9000
//	MPI_Allreduce bytes=8192 t=9100:12000
//	MPI_Finalize t=12500:12600
//	}
//
// Timestamps are nanoseconds since application start. The real liballprof
// writes one file per rank; this package stores all ranks in one artifact
// for convenience (the per-rank blocks are self-contained).
package mpitrace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"

	"atlahs/internal/goal"
)

// OpType enumerates traced MPI calls.
type OpType int

// Traced MPI operations.
const (
	Init OpType = iota
	Finalize
	Send
	Recv
	Isend
	Irecv
	Wait
	Allreduce
	Bcast
	Allgather
	ReduceScatter
	Alltoall
	Barrier
	ReduceOp
	Gather
	Scatter
)

var opNames = map[OpType]string{
	Init: "MPI_Init", Finalize: "MPI_Finalize",
	Send: "MPI_Send", Recv: "MPI_Recv",
	Isend: "MPI_Isend", Irecv: "MPI_Irecv", Wait: "MPI_Wait",
	Allreduce: "MPI_Allreduce", Bcast: "MPI_Bcast",
	Allgather: "MPI_Allgather", ReduceScatter: "MPI_Reduce_scatter",
	Alltoall: "MPI_Alltoall", Barrier: "MPI_Barrier",
	ReduceOp: "MPI_Reduce", Gather: "MPI_Gather", Scatter: "MPI_Scatter",
}

var opByName = func() map[string]OpType {
	m := make(map[string]OpType, len(opNames))
	for k, v := range opNames {
		m[v] = k
	}
	return m
}()

// String returns the MPI call name.
func (t OpType) String() string {
	if s, ok := opNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MPI_Op(%d)", int(t))
}

// IsCollective reports whether the op involves the whole communicator.
func (t OpType) IsCollective() bool {
	switch t {
	case Allreduce, Bcast, Allgather, ReduceScatter, Alltoall, Barrier, ReduceOp, Gather, Scatter:
		return true
	}
	return false
}

// Event is one traced MPI call on one rank.
type Event struct {
	Type  OpType
	Peer  int   // dst (sends) or src (recvs); -1 otherwise
	Bytes int64 // message or collective payload size
	Tag   int32
	Root  int   // collective root, -1 if n/a
	Req   int64 // request id linking Isend/Irecv to Wait; 0 if n/a
	Start int64 // ns
	End   int64 // ns
}

// Trace is a full multi-rank MPI trace.
type Trace struct {
	Events [][]Event // indexed by rank
}

// NumRanks returns the trace's rank count.
func (t *Trace) NumRanks() int { return len(t.Events) }

// New creates an empty trace for nranks ranks.
func New(nranks int) *Trace {
	return &Trace{Events: make([][]Event, nranks)}
}

// Append adds an event to a rank (generator API).
func (t *Trace) Append(rank int, ev Event) {
	t.Events[rank] = append(t.Events[rank], ev)
}

// Validate checks per-rank timestamp monotonicity and argument sanity.
func (t *Trace) Validate() error {
	for r, evs := range t.Events {
		last := int64(-1)
		for i, ev := range evs {
			if ev.End < ev.Start {
				return fmt.Errorf("mpitrace: rank %d event %d: end %d before start %d", r, i, ev.End, ev.Start)
			}
			if ev.Start < last {
				return fmt.Errorf("mpitrace: rank %d event %d: start %d before previous end %d", r, i, ev.Start, last)
			}
			last = ev.End
			switch ev.Type {
			case Send, Recv, Isend, Irecv:
				if ev.Peer < 0 || ev.Peer >= t.NumRanks() {
					return fmt.Errorf("mpitrace: rank %d event %d: peer %d out of range", r, i, ev.Peer)
				}
			}
			if ev.Bytes < 0 {
				return fmt.Errorf("mpitrace: rank %d event %d: negative bytes", r, i)
			}
		}
	}
	return nil
}

// WriteTo serialises the trace in text form.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	if err := count(fmt.Fprintf(bw, "mpitrace nranks %d\n", t.NumRanks())); err != nil {
		return n, err
	}
	for r, evs := range t.Events {
		if err := count(fmt.Fprintf(bw, "rank %d {\n", r)); err != nil {
			return n, err
		}
		for _, ev := range evs {
			var sb strings.Builder
			sb.WriteString(ev.Type.String())
			switch ev.Type {
			case Send, Isend:
				fmt.Fprintf(&sb, " dst=%d bytes=%d tag=%d", ev.Peer, ev.Bytes, ev.Tag)
			case Recv, Irecv:
				fmt.Fprintf(&sb, " src=%d bytes=%d tag=%d", ev.Peer, ev.Bytes, ev.Tag)
			case Wait:
			case Allreduce, Allgather, ReduceScatter, Alltoall:
				fmt.Fprintf(&sb, " bytes=%d", ev.Bytes)
			case Bcast, ReduceOp, Gather, Scatter:
				fmt.Fprintf(&sb, " bytes=%d root=%d", ev.Bytes, ev.Root)
			}
			if ev.Req != 0 {
				fmt.Fprintf(&sb, " req=%d", ev.Req)
			}
			fmt.Fprintf(&sb, " t=%d:%d\n", ev.Start, ev.End)
			if err := count(bw.WriteString(sb.String())); err != nil {
				return n, err
			}
		}
		if err := count(fmt.Fprintln(bw, "}")); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// nextField splits off the first white-space-separated field of b, the way
// strings.Fields would (Unicode white space, invalid UTF-8 is not space).
func nextField(b []byte) (field, rest []byte) {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	if i := bytes.IndexFunc(b, unicode.IsSpace); i >= 0 {
		return b[:i], b[i:]
	}
	return b, nil
}

// ParseBytes parses a text-form trace held in memory. Lines are tokenised
// in place, and all events go into one array sized from the line count:
// a rank's events are a window of it for as long as the rank's block is
// contiguous (a rank that is reopened later continues in an array of its
// own), so parsing allocates the events and nothing per line.
func ParseBytes(b []byte) (*Trace, error) {
	// The shortest event line, "MPI_Wait", has eight bytes and a newline.
	const minEvent = 9
	all := make([]Event, 0, min(bytes.Count(b, []byte{'\n'})+1, len(b)/minEvent+1))
	var t *Trace
	cur := -1     // rank whose block is open
	blockAt := -1 // where cur's window of all starts; -1: cur has an array of its own
	for lineno := 1; len(b) > 0; lineno++ {
		var line []byte
		line, b, _ = bytes.Cut(b, []byte{'\n'})
		first, rest := nextField(line)
		if len(first) == 0 || first[0] == '#' {
			continue
		}
		switch string(first) {
		case "mpitrace":
			kw, rest := nextField(rest)
			count, rest := nextField(rest)
			if extra, _ := nextField(rest); string(kw) != "nranks" || len(count) == 0 || len(extra) != 0 {
				return nil, fmt.Errorf("mpitrace: line %d: bad header", lineno)
			}
			n, err := strconv.Atoi(string(count))
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("mpitrace: line %d: bad rank count", lineno)
			}
			if n > goal.MaxTextRanks {
				return nil, fmt.Errorf("mpitrace: line %d: rank count %d exceeds the limit %d", lineno, n, goal.MaxTextRanks)
			}
			t = New(n)
		case "rank":
			if t == nil {
				return nil, fmt.Errorf("mpitrace: line %d: rank before header", lineno)
			}
			num, rest := nextField(rest)
			brace, rest := nextField(rest)
			if extra, _ := nextField(rest); string(brace) != "{" || len(extra) != 0 {
				return nil, fmt.Errorf("mpitrace: line %d: bad rank block", lineno)
			}
			rk, err := strconv.Atoi(string(num))
			if err != nil || rk < 0 || rk >= t.NumRanks() {
				return nil, fmt.Errorf("mpitrace: line %d: bad rank %q", lineno, num)
			}
			cur, blockAt = rk, -1
			if len(t.Events[rk]) == 0 {
				blockAt = len(all)
			}
		case "}":
			cur = -1
		default:
			if t == nil || cur < 0 {
				return nil, fmt.Errorf("mpitrace: line %d: event outside rank block", lineno)
			}
			ev, err := parseEvent(first, rest)
			if err != nil {
				return nil, fmt.Errorf("mpitrace: line %d: %w", lineno, err)
			}
			if blockAt < 0 {
				t.Events[cur] = append(t.Events[cur], ev)
				continue
			}
			all = append(all, ev)
			// capped, so that appending to one rank cannot reach the next
			t.Events[cur] = all[blockAt:len(all):len(all)]
		}
	}
	if t == nil {
		return nil, fmt.Errorf("mpitrace: missing header")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// parseEvent parses one event line, given as its first field (the MPI
// call) and what follows it.
func parseEvent(call, attrs []byte) (Event, error) {
	ev := Event{Peer: -1, Root: -1}
	op, ok := opByName[string(call)]
	if !ok {
		return ev, fmt.Errorf("unknown MPI call %q", call)
	}
	ev.Type = op
	for {
		var f []byte
		if f, attrs = nextField(attrs); len(f) == 0 {
			return ev, nil
		}
		k, v, ok := bytes.Cut(f, []byte{'='})
		if !ok {
			return ev, fmt.Errorf("malformed attribute %q", f)
		}
		switch string(k) {
		case "dst", "src":
			p, err := strconv.Atoi(string(v))
			if err != nil {
				return ev, fmt.Errorf("bad %s %q", k, v)
			}
			ev.Peer = p
		case "bytes":
			b, err := strconv.ParseInt(string(v), 10, 64)
			if err != nil {
				return ev, fmt.Errorf("bad bytes %q", v)
			}
			ev.Bytes = b
		case "tag":
			tg, err := strconv.ParseInt(string(v), 10, 32)
			if err != nil {
				return ev, fmt.Errorf("bad tag %q", v)
			}
			ev.Tag = int32(tg)
		case "root":
			rt, err := strconv.Atoi(string(v))
			if err != nil {
				return ev, fmt.Errorf("bad root %q", v)
			}
			ev.Root = rt
		case "req":
			rq, err := strconv.ParseInt(string(v), 10, 64)
			if err != nil {
				return ev, fmt.Errorf("bad req %q", v)
			}
			ev.Req = rq
		case "t":
			s, e, ok := bytes.Cut(v, []byte{':'})
			if !ok {
				return ev, fmt.Errorf("bad timestamps %q", v)
			}
			var err error
			if ev.Start, err = strconv.ParseInt(string(s), 10, 64); err != nil {
				return ev, fmt.Errorf("bad start %q", s)
			}
			if ev.End, err = strconv.ParseInt(string(e), 10, 64); err != nil {
				return ev, fmt.Errorf("bad end %q", e)
			}
		default:
			return ev, fmt.Errorf("unknown attribute %q", k)
		}
	}
}

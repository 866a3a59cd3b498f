// Package nsys defines the Nsight-Systems-like GPU trace format consumed
// by the AI arm of the toolchain (paper §3.1.2). A report captures, per
// GPU and per CUDA stream, the kernels and NCCL operations executed with
// their timestamps; NCCL records carry the communicator annotations the
// paper adds to NCCL via NVTX (communicator id, payload, root/peer).
//
// The on-disk form is JSON lines: a header object followed by one record
// per line. Real nsys reports are SQLite databases; the JSON-lines
// rendering keeps the same information content while staying dependency-
// free, and — like the real reports in paper Table 1 — is much larger
// than the GOAL files generated from it.
package nsys

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"

	"atlahs/internal/goal"
)

// Record kinds.
const (
	KindKernel = "kernel"
	KindNCCL   = "nccl"
)

// NCCL collective names used in Coll.
const (
	CollAllReduce     = "allreduce"
	CollBroadcast     = "broadcast"
	CollAllGather     = "allgather"
	CollReduceScatter = "reducescatter"
	CollAllToAll      = "alltoall"
	CollSend          = "send"
	CollRecv          = "recv"
)

// Record is one traced GPU activity.
type Record struct {
	GPU     int    `json:"gpu"`
	Stream  int    `json:"stream"`
	Kind    string `json:"kind"`
	Name    string `json:"name,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`

	// NCCL fields (present when Kind == KindNCCL), captured through the
	// NVTX annotations described in the paper.
	Coll  string `json:"coll,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
	Comm  string `json:"comm,omitempty"`
	Root  int    `json:"root,omitempty"` // communicator-relative root
	Peer  int    `json:"peer,omitempty"` // communicator-relative peer (send/recv)
}

// Report is a full multi-GPU trace plus communicator membership.
type Report struct {
	NGPUs int              `json:"ngpus"`
	Comms map[string][]int `json:"comms"` // communicator -> GPU ids in rank order
	// Records from all GPUs; order within a (gpu, stream) follows launch
	// order but the file may interleave GPUs arbitrarily.
	Records []Record `json:"-"`
}

type header struct {
	Format string           `json:"format"`
	NGPUs  int              `json:"ngpus"`
	Comms  map[string][]int `json:"comms"`
}

const formatName = "atlahs-nsys-v1"

// Validate checks structural invariants.
func (r *Report) Validate() error {
	if r.NGPUs <= 0 {
		return fmt.Errorf("nsys: non-positive GPU count %d", r.NGPUs)
	}
	if r.NGPUs > goal.MaxTextRanks {
		return fmt.Errorf("nsys: GPU count %d exceeds the limit %d", r.NGPUs, goal.MaxTextRanks)
	}
	// Every communicator's members sorted once: a repeat shows as equal
	// neighbours, and each NCCL record's membership test is a binary
	// search instead of a scan of the communicator. (Sorted lists rather
	// than one bitmap of NGPUs bits per communicator: a header can name
	// thousands of one-member communicators among a million GPUs.)
	sorted := make(map[string][]int, len(r.Comms))
	nmembers := 0
	for _, members := range r.Comms {
		nmembers += len(members)
	}
	buf := make([]int, 0, nmembers) // every sorted list, one after the other
	for name, members := range r.Comms {
		buf = append(buf, members...)
		m := buf[len(buf)-len(members):]
		slices.Sort(m)
		for i, g := range m {
			if g < 0 || g >= r.NGPUs {
				return fmt.Errorf("nsys: comm %q member %d out of range", name, g)
			}
			if i > 0 && g == m[i-1] {
				return fmt.Errorf("nsys: comm %q repeats GPU %d", name, g)
			}
		}
		sorted[name] = m
	}
	for i := range r.Records {
		rec := &r.Records[i]
		if rec.GPU < 0 || rec.GPU >= r.NGPUs {
			return fmt.Errorf("nsys: record %d: GPU %d out of range", i, rec.GPU)
		}
		if rec.EndNs < rec.StartNs {
			return fmt.Errorf("nsys: record %d: end before start", i)
		}
		switch rec.Kind {
		case KindKernel:
		case KindNCCL:
			comm, ok := sorted[rec.Comm]
			if !ok {
				return fmt.Errorf("nsys: record %d: unknown communicator %q", i, rec.Comm)
			}
			if _, found := slices.BinarySearch(comm, rec.GPU); !found {
				return fmt.Errorf("nsys: record %d: GPU %d not in communicator %q", i, rec.GPU, rec.Comm)
			}
			switch rec.Coll {
			case CollAllReduce, CollBroadcast, CollAllGather, CollReduceScatter, CollAllToAll:
			case CollSend, CollRecv:
				if rec.Peer < 0 || rec.Peer >= len(comm) {
					return fmt.Errorf("nsys: record %d: peer %d out of communicator range", i, rec.Peer)
				}
				if r.Comms[rec.Comm][rec.Peer] == rec.GPU {
					return fmt.Errorf("nsys: record %d: %s with itself (peer %d of communicator %q is GPU %d)", i, rec.Coll, rec.Peer, rec.Comm, rec.GPU)
				}
			default:
				return fmt.Errorf("nsys: record %d: unknown collective %q", i, rec.Coll)
			}
			if rec.Bytes < 0 {
				return fmt.Errorf("nsys: record %d: negative bytes", i)
			}
		default:
			return fmt.Errorf("nsys: record %d: unknown kind %q", i, rec.Kind)
		}
	}
	return nil
}

// Stream is one CUDA stream of one GPU: the positions in Report.Records
// of its records, sorted by start time (launch order on ties).
type Stream struct {
	ID      int
	Records []int
}

// ByStream indexes the records by (gpu, stream) with one sort over all of
// them (stage 1 of the GOAL pipeline): element g lists GPU g's streams by
// ascending id. The report must be valid (GPU ids in range).
func (r *Report) ByStream() [][]Stream {
	order := make([]int, len(r.Records))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		x, y := &r.Records[a], &r.Records[b]
		return cmp.Or(cmp.Compare(x.GPU, y.GPU), cmp.Compare(x.Stream, y.Stream), cmp.Compare(x.StartNs, y.StartNs))
	})
	same := func(a, b int) bool {
		x, y := &r.Records[order[a]], &r.Records[order[b]]
		return x.GPU == y.GPU && x.Stream == y.Stream
	}
	nstreams := 0
	for i := range order {
		if i == 0 || !same(i-1, i) {
			nstreams++
		}
	}
	// every GPU's streams are a window of one array
	all := make([]Stream, 0, nstreams)
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && same(lo, hi) {
			hi++
		}
		all = append(all, Stream{ID: r.Records[order[lo]].Stream, Records: order[lo:hi:hi]})
		lo = hi
	}
	gpu := func(st Stream) int { return r.Records[st.Records[0]].GPU }
	out := make([][]Stream, r.NGPUs)
	for lo := 0; lo < len(all); {
		hi := lo + 1
		for hi < len(all) && gpu(all[hi]) == gpu(all[lo]) {
			hi++
		}
		out[gpu(all[lo])] = all[lo:hi:hi]
		lo = hi
	}
	return out
}

// WriteTo serialises the report as JSON lines.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var n int64
	enc := json.NewEncoder(bw)
	hdrBytes, err := json.Marshal(header{Format: formatName, NGPUs: r.NGPUs, Comms: r.Comms})
	if err != nil {
		return 0, err
	}
	c, err := bw.Write(append(hdrBytes, '\n'))
	n += int64(c)
	if err != nil {
		return n, err
	}
	for i := range r.Records {
		before := bw.Buffered()
		if err := enc.Encode(&r.Records[i]); err != nil {
			return n, err
		}
		n += int64(bw.Buffered() - before)
	}
	return n, bw.Flush()
}

// ParseBytes parses a JSON-lines report held in memory. Records is sized
// once from the line count, every record is decoded in place, and the
// record strings — a handful of distinct kinds, collectives, communicators
// and kernel names — are interned, so a report of N lines costs its N
// Records and a constant number of allocations more. Like the encoding/json
// decoder it runs on, it takes any stream of JSON values, not only one per
// line; what is not one per line merely regrows Records.
func ParseBytes(b []byte) (*Report, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	var hdr header
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("nsys: reading header: %w", err)
	}
	if hdr.Format != formatName {
		return nil, fmt.Errorf("nsys: unknown format %q", hdr.Format)
	}
	// A record that names its kind is longer than minRecord bytes, which
	// keeps an input of nothing but newlines from reserving 120 bytes each.
	const minRecord = 16
	lines := min(bytes.Count(b, []byte{'\n'}), len(b)/minRecord)
	rep := &Report{NGPUs: hdr.NGPUs, Comms: hdr.Comms, Records: make([]Record, 0, lines)}
	var w wireRecord
	strs := interned{}
	for {
		n := len(rep.Records)
		rep.Records = append(rep.Records, Record{})
		rec := &rep.Records[n]
		w = wireRecord{Record: rec, Kind: w.Kind[:0], Name: w.Name[:0], Coll: w.Coll[:0], Comm: w.Comm[:0]}
		if err := dec.Decode(&w); err == io.EOF {
			rep.Records = rep.Records[:n]
			break
		} else if err != nil {
			return nil, fmt.Errorf("nsys: reading record %d: %w", n, err)
		}
		rec.Kind, rec.Name, rec.Coll, rec.Comm = strs.of(w.Kind), strs.of(w.Name), strs.of(w.Coll), strs.of(w.Comm)
	}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return rep, nil
}

// wireRecord decodes one record in place. The numeric fields go straight
// into the embedded Record; its four string fields are shadowed by the
// ones declared here (encoding/json prefers the shallower of two fields
// with one name), which keep the raw JSON in buffers reused from record to
// record for interned to turn into shared strings.
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

// interned maps JSON string tokens to their decoded strings, so every
// record that spells a string the same way shares one copy of it.
type interned map[string]string

func (in interned) of(raw []byte) string {
	if len(raw) == 0 {
		return "" // field absent or null
	}
	if s, ok := in[string(raw)]; ok {
		return s
	}
	var s string
	// raw is a string token the decoder has already accepted.
	_ = json.Unmarshal(raw, &s)
	in[string(raw)] = s
	return s
}

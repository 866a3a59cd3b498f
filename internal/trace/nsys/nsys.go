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
//
// Parse and ParseBytes read a report: encoding/json decodes the header,
// and a scanner of this package's own reads the records in place, in one
// walk over the bytes, accepting exactly the record grammar encoding/json
// does and reading the same values.
package nsys

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"

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
			case CollAllReduce, CollAllGather, CollReduceScatter, CollAllToAll:
			case CollBroadcast:
				if rec.Root < 0 || rec.Root >= len(comm) {
					return fmt.Errorf("nsys: record %d: root %d out of communicator range", i, rec.Root)
				}
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

// ParseBytes parses a JSON-lines report held in memory and validates it.
// It is Parse on a new report.
func ParseBytes(b []byte) (*Report, error) {
	rep := new(Report)
	if err := rep.Parse(b); err != nil {
		return nil, err
	}
	return rep, nil
}

// Parse reads a JSON-lines report held in memory into r, replacing what r
// held, and validates it. r's Records array is reused when it is large
// enough, so a caller that parses one report after another into the same
// Report allocates its records once. After an error what r holds is
// unspecified.
//
// The header is decoded by encoding/json. The records after it are read
// by one scanner that walks the slice once and accepts what encoding/json
// would decode into a Record, with the same values: a stream of JSON
// objects (or nulls, which leave a record zero) separated by any run of
// JSON whitespace or by nothing; keys matched exactly or else
// case-insensitively, under Unicode folding, once unescaped; the int
// fields take an integer literal that fits their type and the string
// fields a string, null leaving either as it was; unknown keys take any
// JSON value nested at most 10 000 deep, the record being one; and the
// last of a repeated key wins. Records is sized once from the line count,
// every record is filled in place, and the record strings — a handful of
// distinct kinds, collectives, communicators and kernel names — are
// interned, so a report of N lines costs its N Records, or nothing when r
// already has room for them, and a constant number of allocations more.
// What is not one record per line merely regrows Records.
func (r *Report) Parse(b []byte) error {
	if err := parse(r, b); err != nil {
		return err
	}
	return r.Validate()
}

// parse is Parse without the validation.
func parse(rep *Report, b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	var hdr header
	if err := dec.Decode(&hdr); err != nil {
		return fmt.Errorf("nsys: reading header: %w", err)
	}
	if hdr.Format != formatName {
		return fmt.Errorf("nsys: unknown format %q", hdr.Format)
	}
	// A record that names its kind is longer than minRecord bytes, which
	// keeps an input of nothing but newlines from reserving 120 bytes each.
	const minRecord = 16
	lines := min(bytes.Count(b, []byte{'\n'}), len(b)/minRecord)
	rep.NGPUs, rep.Comms = hdr.NGPUs, hdr.Comms
	if rep.Records == nil || cap(rep.Records) < lines {
		rep.Records = make([]Record, 0, lines)
	}
	rep.Records = rep.Records[:0]
	s := scanner{b: b, off: int(dec.InputOffset())}
	strs := interned{}
	for {
		s.space()
		if s.off == len(b) {
			return nil
		}
		n := len(rep.Records)
		rep.Records = append(rep.Records, Record{})
		rec := &rep.Records[n]
		var raw recordStrings
		if err := s.record(rec, &raw); err != nil {
			return fmt.Errorf("nsys: reading record %d: %w", n, err)
		}
		rec.Kind, rec.Name, rec.Coll, rec.Comm = strs.of(raw.kind), strs.of(raw.name), strs.of(raw.coll), strs.of(raw.comm)
	}
}

// maxDepth is how deeply encoding/json lets JSON values nest.
const maxDepth = 10000

// recordKeys are the JSON keys of a Record.
var recordKeys = [...]string{"gpu", "stream", "kind", "name", "start_ns", "end_ns", "coll", "bytes", "comm", "root", "peer"}

// recordStrings holds a record's string fields as the JSON string tokens
// read for them, quotes and escapes included, or nil.
type recordStrings struct {
	kind, name, coll, comm []byte
}

// scanner reads JSON values from b, starting at off.
type scanner struct {
	b   []byte
	off int
}

// record reads one record into rec, and its string tokens into raw.
func (s *scanner) record(rec *Record, raw *recordStrings) error {
	if s.peek() == 'n' {
		return s.literal("null") // as encoding/json leaves a struct: zero
	}
	if s.peek() != '{' {
		return s.fail("looking for the beginning of a record")
	}
	s.off++
	for more := s.first('}'); more; {
		tok, err := s.key()
		if err != nil {
			return err
		}
		switch field(tok) {
		case "gpu":
			err = s.intValue(&rec.GPU)
		case "stream":
			err = s.intValue(&rec.Stream)
		case "kind":
			err = s.stringValue(&raw.kind)
		case "name":
			err = s.stringValue(&raw.name)
		case "start_ns":
			err = s.int64Value(&rec.StartNs)
		case "end_ns":
			err = s.int64Value(&rec.EndNs)
		case "coll":
			err = s.stringValue(&raw.coll)
		case "bytes":
			err = s.int64Value(&rec.Bytes)
		case "comm":
			err = s.stringValue(&raw.comm)
		case "root":
			err = s.intValue(&rec.Root)
		case "peer":
			err = s.intValue(&rec.Peer)
		default:
			err = s.skip(2)
		}
		if err != nil {
			return err
		}
		if more, err = s.next('}'); err != nil {
			return err
		}
	}
	return nil
}

// key reads an object key and the colon after it, and returns the key's
// token.
func (s *scanner) key() ([]byte, error) {
	tok, err := s.token()
	if err != nil {
		return nil, err
	}
	s.space()
	if s.peek() != ':' {
		return nil, s.fail("after an object key")
	}
	s.off++
	s.space()
	return tok, nil
}

// field returns the record key that the key token tok names, or "" for
// none: the key spelt exactly, else the first that equals it under Unicode
// case folding, which is how encoding/json matches a key to a field.
func field(tok []byte) string {
	name := tok[1 : len(tok)-1]
	if bytes.IndexByte(name, '\\') >= 0 {
		var unescaped string
		_ = json.Unmarshal(tok, &unescaped) // token has checked the escapes
		name = []byte(unescaped)
	}
	for _, k := range recordKeys {
		if string(name) == k {
			return k
		}
	}
	for _, k := range recordKeys {
		if bytes.EqualFold(name, []byte(k)) {
			return k
		}
	}
	return ""
}

// int64Value reads an integer literal into v, or null, which leaves v as it
// is; any other value is an error, as it is for encoding/json.
func (s *scanner) int64Value(v *int64) error {
	switch c := s.peek(); {
	case c == 'n':
		return s.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return s.fail("where an integer was expected")
	}
	start := s.off
	if err := s.number(); err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(s.b[start:s.off]), 10, 64)
	if err != nil {
		return fmt.Errorf("cannot read number %s into an int64", s.b[start:s.off])
	}
	*v = n
	return nil
}

// intValue is int64Value for an int field.
func (s *scanner) intValue(v *int) error {
	n := int64(*v)
	if err := s.int64Value(&n); err != nil {
		return err
	}
	if int64(int(n)) != n {
		return fmt.Errorf("number %d overflows an int", n)
	}
	*v = int(n)
	return nil
}

// stringValue reads a string token into v, or null, which leaves v as it is;
// any other value is an error, as it is for encoding/json.
func (s *scanner) stringValue(v *[]byte) error {
	switch s.peek() {
	case 'n':
		return s.literal("null")
	case '"':
		tok, err := s.token()
		*v = tok
		return err
	}
	return s.fail("where a string was expected")
}

// skip reads any JSON value, nested depth deep.
func (s *scanner) skip(depth int) error {
	switch c := s.peek(); c {
	case '{', '[':
		if depth > maxDepth {
			return s.fail("exceeding the maximum nesting depth")
		}
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		s.off++
		for more := s.first(end); more; {
			if c == '{' {
				if _, err := s.key(); err != nil {
					return err
				}
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
			var err error
			if more, err = s.next(end); err != nil {
				return err
			}
		}
		return nil
	case '"':
		_, err := s.token()
		return err
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	}
	return s.number()
}

// first steps into a container just opened: it reports whether a member
// follows, or steps past end if the container is empty.
func (s *scanner) first(end byte) bool {
	s.space()
	if s.peek() == end {
		s.off++
		return false
	}
	return true
}

// next steps past what follows a container's member: a comma, when it
// reports that another member follows, or the container's end.
func (s *scanner) next(end byte) (bool, error) {
	s.space()
	switch s.peek() {
	case ',':
		s.off++
		s.space()
		return true, nil
	case end:
		s.off++
		return false, nil
	}
	return false, s.fail("after a member")
}

// token reads a string and returns its token, quotes included.
func (s *scanner) token() ([]byte, error) {
	start := s.off
	if s.peek() != '"' {
		return nil, s.fail("where a string was expected")
	}
	for s.off++; s.off < len(s.b); s.off++ {
		switch c := s.b[s.off]; {
		case c == '"':
			s.off++
			return s.b[start:s.off], nil
		case c < ' ':
			return nil, s.fail("in a string")
		case c == '\\':
			s.off++
			switch s.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for range 4 {
					s.off++
					if c := s.peek(); !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
						return nil, s.fail("in a \\u escape")
					}
				}
			default:
				return nil, s.fail("in a string escape")
			}
		}
	}
	return nil, s.fail("in a string")
}

// number reads a number.
func (s *scanner) number() error {
	if s.peek() == '-' {
		s.off++
	}
	switch c := s.peek(); {
	case c == '0':
		s.off++
	case '1' <= c && c <= '9':
		s.digits()
	default:
		return s.fail("looking for the beginning of a value")
	}
	if s.peek() == '.' {
		s.off++
		if !s.digits() {
			return s.fail("after a decimal point")
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.off++
		if c := s.peek(); c == '+' || c == '-' {
			s.off++
		}
		if !s.digits() {
			return s.fail("in an exponent")
		}
	}
	return nil
}

// digits reads a run of decimal digits and reports whether there was one.
func (s *scanner) digits() bool {
	start := s.off
	for c := s.peek(); '0' <= c && c <= '9'; c = s.peek() {
		s.off++
	}
	return s.off > start
}

// literal reads the literal word.
func (s *scanner) literal(word string) error {
	for i := range len(word) {
		if s.peek() != word[i] {
			return s.fail("in literal " + word)
		}
		s.off++
	}
	return nil
}

// space steps over JSON whitespace.
func (s *scanner) space() {
	for ; s.off < len(s.b); s.off++ {
		if c := s.b[s.off]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
	}
}

// peek returns the byte at off, or 0 at the end of the input, which no
// JSON value may contain outside a string.
func (s *scanner) peek() byte {
	if s.off < len(s.b) {
		return s.b[s.off]
	}
	return 0
}

// fail reports the byte at off as invalid in context.
func (s *scanner) fail(context string) error {
	if s.off >= len(s.b) {
		return fmt.Errorf("unexpected end of input %s", context)
	}
	return fmt.Errorf("offset %d: invalid character %q %s", s.off, s.b[s.off], context)
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
	// raw is a string token the scanner has already accepted.
	_ = json.Unmarshal(raw, &s)
	in[string(raw)] = s
	return s
}

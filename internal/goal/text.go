package goal

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// The textual GOAL format (paper Fig 3):
//
//	num_ranks 2
//	rank 0 {
//	l1: calc 100
//	l2: calc 200 cpu 1
//	l3: send 10b to 1 tag 42
//	l4: recv 10b from 1 tag 42 cpu 1
//	l3 requires l1
//	l4 irequires l2
//	}
//
// Labels are arbitrary identifiers local to a rank block. Byte sizes carry
// a "b" suffix; calc durations are plain nanosecond integers. "cpu N"
// assigns the compute stream, "tag N" the message tag (default 0).

// MaxTextRanks bounds the rank count a textual GOAL header may declare.
// Rank state is allocated up front from the header, so an absurd count in
// a malformed (or hostile) file would exhaust memory before any op line is
// even read; real schedules at this scale ship as binary GOAL anyway.
const MaxTextRanks = 1 << 20

// WriteText prints the schedule in textual GOAL format.
func WriteText(w io.Writer, s *Schedule) error {
	bw := bufio.NewWriter(w)
	if s.Comment != "" {
		for _, line := range strings.Split(s.Comment, "\n") {
			fmt.Fprintf(bw, "// %s\n", line)
		}
	}
	fmt.Fprintf(bw, "num_ranks %d\n", s.NumRanks())
	for r := range s.Ranks {
		rp := &s.Ranks[r]
		fmt.Fprintf(bw, "rank %d {\n", r)
		ops := rp.Cursor()
		for i := range rp.Len() {
			op := ops.Next()
			switch op.Kind() {
			case KindCalc:
				fmt.Fprintf(bw, "l%d: calc %d", i+1, op.Size())
			case KindSend:
				fmt.Fprintf(bw, "l%d: send %db to %d tag %d", i+1, op.Size(), op.Peer(), op.Tag())
			case KindRecv:
				fmt.Fprintf(bw, "l%d: recv %db from %d tag %d", i+1, op.Size(), op.Peer(), op.Tag())
			}
			if cpu := op.CPU(); cpu != 0 {
				fmt.Fprintf(bw, " cpu %d", cpu)
			}
			bw.WriteByte('\n')
		}
		req, ireq := rp.Requires.Cursor(), rp.IRequires.Cursor()
		for i := range rp.Len() {
			for k := req.Next(); k > 0; k-- {
				fmt.Fprintf(bw, "l%d requires l%d\n", i+1, req.Dep()+1)
			}
			for k := ireq.Next(); k > 0; k-- {
				fmt.Fprintf(bw, "l%d irequires l%d\n", i+1, ireq.Dep()+1)
			}
		}
		fmt.Fprintln(bw, "}")
	}
	return bw.Flush()
}

// ParseText reads a schedule in textual GOAL format.
func ParseText(r io.Reader) (*Schedule, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	p := &textParser{}
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if i := strings.Index(line, "//"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("goal: line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("goal: %w", err)
	}
	return p.finish()
}

type textParser struct {
	b       *Builder
	curRank *RankBuilder
	labels  map[string]OpID // labels of the current rank block
	pending []textDep       // deferred dependency lines
}

// textDep is a dependency line, "<label> requires|irequires <on>"; op and
// dep are the ops its labels name, resolved at the block's }.
type textDep struct {
	label, kind, on string
	op, dep         OpID
}

func (p *textParser) line(line string) error {
	fields := strings.Fields(line)
	switch {
	case fields[0] == "num_ranks":
		if len(fields) != 2 {
			return fmt.Errorf("malformed num_ranks line %q", line)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n <= 0 {
			return fmt.Errorf("bad rank count %q", fields[1])
		}
		if n > MaxTextRanks {
			return fmt.Errorf("rank count %d exceeds the text-format limit %d", n, MaxTextRanks)
		}
		if p.b != nil {
			return fmt.Errorf("duplicate num_ranks")
		}
		p.b = NewBuilder(n)
		return nil
	case fields[0] == "rank":
		if p.b == nil {
			return fmt.Errorf("rank block before num_ranks")
		}
		if p.curRank != nil {
			return fmt.Errorf("nested rank block")
		}
		if len(fields) != 3 || fields[2] != "{" {
			return fmt.Errorf("malformed rank header %q", line)
		}
		r, err := strconv.Atoi(fields[1])
		if err != nil || r < 0 || r >= p.b.NumRanks() {
			return fmt.Errorf("bad rank index %q", fields[1])
		}
		p.curRank = p.b.Rank(r)
		p.labels = map[string]OpID{}
		p.pending = p.pending[:0]
		return nil
	case fields[0] == "}":
		if p.curRank == nil {
			return fmt.Errorf("unexpected }")
		}
		for i := range p.pending {
			d := &p.pending[i]
			var ok bool
			if d.op, ok = p.labels[d.label]; !ok {
				return fmt.Errorf("unknown label %q in dependency", d.label)
			}
			if d.dep, ok = p.labels[d.on]; !ok {
				return fmt.Errorf("unknown label %q in dependency", d.on)
			}
		}
		// Dependency lines come in any order and the builder takes them in
		// op order: a stable sort keeps each op's lines in written order.
		slices.SortStableFunc(p.pending, func(x, y textDep) int { return cmp.Compare(x.op, y.op) })
		for _, d := range p.pending {
			if d.kind == "requires" {
				p.curRank.Requires(d.op, d.dep)
			} else {
				p.curRank.IRequires(d.op, d.dep)
			}
		}
		p.curRank = nil
		p.labels = nil
		return nil
	}
	if p.curRank == nil {
		return fmt.Errorf("statement outside rank block: %q", line)
	}
	// dependency line: "<label> requires <label>" / "<label> irequires <label>"
	if len(fields) == 3 && (fields[1] == "requires" || fields[1] == "irequires") {
		p.pending = append(p.pending, textDep{label: fields[0], kind: fields[1], on: fields[2]})
		return nil
	}
	// op line: "<label>: <op> ..."
	if !strings.HasSuffix(fields[0], ":") {
		return fmt.Errorf("expected op or dependency, got %q", line)
	}
	label := strings.TrimSuffix(fields[0], ":")
	if _, dup := p.labels[label]; dup {
		return fmt.Errorf("duplicate label %q", label)
	}
	id, err := p.parseOp(fields[1:])
	if err != nil {
		return err
	}
	p.labels[label] = id
	return nil
}

func (p *textParser) parseOp(fields []string) (OpID, error) {
	if len(fields) == 0 {
		return 0, fmt.Errorf("empty op")
	}
	var (
		kind Kind
		size int64
		peer = -1
		tag  int32
		cpu  int32
	)
	switch fields[0] {
	case "calc":
		kind = KindCalc
		if len(fields) < 2 {
			return 0, fmt.Errorf("calc missing duration")
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad calc duration %q", fields[1])
		}
		size = n
		fields = fields[2:]
	case "send", "recv":
		if fields[0] == "send" {
			kind = KindSend
		} else {
			kind = KindRecv
		}
		if len(fields) < 4 {
			return 0, fmt.Errorf("%s needs '<N>b to|from <rank>'", fields[0])
		}
		szs := strings.TrimSuffix(fields[1], "b")
		n, err := strconv.ParseInt(szs, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad size %q", fields[1])
		}
		size = n
		dir := fields[2]
		if (kind == KindSend && dir != "to") || (kind == KindRecv && dir != "from") {
			return 0, fmt.Errorf("expected to/from, got %q", dir)
		}
		pr, err := strconv.Atoi(fields[3])
		if err != nil {
			return 0, fmt.Errorf("bad peer %q", fields[3])
		}
		peer = pr
		fields = fields[4:]
	default:
		return 0, fmt.Errorf("unknown op %q", fields[0])
	}
	for len(fields) > 0 {
		switch fields[0] {
		case "tag":
			if len(fields) < 2 {
				return 0, fmt.Errorf("tag missing value")
			}
			v, err := strconv.ParseInt(fields[1], 10, 32)
			if err != nil {
				return 0, fmt.Errorf("bad tag %q", fields[1])
			}
			tag = int32(v)
			fields = fields[2:]
		case "cpu":
			if len(fields) < 2 {
				return 0, fmt.Errorf("cpu missing value")
			}
			v, err := strconv.ParseInt(fields[1], 10, 32)
			if err != nil || v < 0 {
				return 0, fmt.Errorf("bad cpu %q", fields[1])
			}
			cpu = int32(v)
			fields = fields[2:]
		case "nic":
			// accepted for compatibility with LogGOPSim schedules; ignored
			if len(fields) < 2 {
				return 0, fmt.Errorf("nic missing value")
			}
			fields = fields[2:]
		default:
			return 0, fmt.Errorf("unknown attribute %q", fields[0])
		}
	}
	if f, v := unheld(kind, size, cpu); f != fieldNone {
		return 0, f.err(kind, v)
	}
	switch kind {
	case KindCalc:
		return p.curRank.CalcOn(size, cpu), nil
	case KindSend:
		return p.curRank.SendOn(size, peer, tag, cpu), nil
	default:
		return p.curRank.RecvOn(size, peer, tag, cpu), nil
	}
}

func (p *textParser) finish() (*Schedule, error) {
	if p.b == nil {
		return nil, fmt.Errorf("goal: missing num_ranks")
	}
	if p.curRank != nil {
		return nil, fmt.Errorf("goal: unterminated rank block")
	}
	s := p.b.Build()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

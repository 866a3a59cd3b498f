// Package spc implements the SPC block-I/O trace format (Storage
// Performance Council; used by the UMass Trace Repository collection the
// paper's storage case study draws from, §3.1.3 and Fig 11). The seeded
// synthetic generator matching the published characteristics of the
// "Financial" OLTP traces lives in internal/workload/oltp.
//
// An SPC trace is a CSV with one I/O command per record:
//
//	ASU,LBA,Size,Opcode,Timestamp
//
// ASU is the application storage unit, LBA the logical block address,
// Size the transfer size in bytes, Opcode R/W, and Timestamp fractional
// seconds since trace start.
package spc

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// Op is one traced block-I/O command.
type Op struct {
	ASU   int
	LBA   int64
	Bytes int64
	Write bool
	Time  float64 // seconds since trace start
}

// Trace is an ordered sequence of I/O commands.
type Trace struct {
	Ops []Op
}

// Validate checks ordering and field sanity.
func (t *Trace) Validate() error {
	last := -1.0
	for i, op := range t.Ops {
		if op.Time < last {
			return fmt.Errorf("spc: op %d: timestamp %.6f before previous %.6f", i, op.Time, last)
		}
		last = op.Time
		if op.Bytes <= 0 {
			return fmt.Errorf("spc: op %d: non-positive size %d", i, op.Bytes)
		}
		if op.LBA < 0 || op.ASU < 0 {
			return fmt.Errorf("spc: op %d: negative ASU/LBA", i)
		}
	}
	return nil
}

// WriteTo serialises the trace as SPC CSV.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for _, op := range t.Ops {
		opc := "R"
		if op.Write {
			opc = "W"
		}
		c, err := fmt.Fprintf(bw, "%d,%d,%d,%s,%.6f\n", op.ASU, op.LBA, op.Bytes, opc, op.Time)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ParseBytes parses an SPC CSV trace held in memory. Opcode matching is
// case-insensitive; blank lines and lines starting with '#' are skipped,
// as are fields after the fifth. Lines are tokenised in place and Ops is
// sized once from the line count, so parsing allocates the commands and
// nothing per line.
func ParseBytes(b []byte) (*Trace, error) {
	// The shortest record, "0,0,1,R,0", has nine bytes and a newline.
	const minRecord = 10
	t := &Trace{Ops: make([]Op, 0, min(bytes.Count(b, []byte{'\n'})+1, len(b)/minRecord+1))}
	for lineno := 1; len(b) > 0; lineno++ {
		var line []byte
		line, b, _ = bytes.Cut(b, []byte{'\n'})
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		var f [5][]byte
		n := 0
		for more := true; more && n < len(f); n++ {
			f[n], line, more = bytes.Cut(line, []byte{','})
			f[n] = bytes.TrimSpace(f[n])
		}
		if n < len(f) {
			return nil, fmt.Errorf("spc: line %d: want 5 fields, got %d", lineno, n)
		}
		asu, err := strconv.Atoi(string(f[0]))
		if err != nil {
			return nil, fmt.Errorf("spc: line %d: bad ASU %q", lineno, f[0])
		}
		lba, err := strconv.ParseInt(string(f[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("spc: line %d: bad LBA %q", lineno, f[1])
		}
		size, err := strconv.ParseInt(string(f[2]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("spc: line %d: bad size %q", lineno, f[2])
		}
		var write bool
		switch string(f[3]) {
		case "W", "w":
			write = true
		case "R", "r":
		default:
			return nil, fmt.Errorf("spc: line %d: bad opcode %q", lineno, f[3])
		}
		ts, err := strconv.ParseFloat(string(f[4]), 64)
		if err != nil {
			return nil, fmt.Errorf("spc: line %d: bad timestamp %q", lineno, f[4])
		}
		t.Ops = append(t.Ops, Op{ASU: asu, LBA: lba, Bytes: size, Write: write, Time: ts})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Stats summarises a trace for reporting.
type Stats struct {
	Ops        int
	Writes     int
	Bytes      int64
	MeanBytes  float64
	Duration   float64 // seconds
	WriteRatio float64
}

// ComputeStats tallies trace statistics.
func (t *Trace) ComputeStats() Stats {
	st := Stats{Ops: len(t.Ops)}
	for _, op := range t.Ops {
		if op.Write {
			st.Writes++
		}
		st.Bytes += op.Bytes
	}
	if len(t.Ops) > 0 {
		st.MeanBytes = float64(st.Bytes) / float64(len(t.Ops))
		st.Duration = t.Ops[len(t.Ops)-1].Time - t.Ops[0].Time
		st.WriteRatio = float64(st.Writes) / float64(len(t.Ops))
	}
	return st
}

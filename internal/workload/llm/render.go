package llm

import (
	"fmt"

	"atlahs/internal/trace/chakra"
	"atlahs/internal/trace/nsys"
)

// Generate builds the workload and renders it as an nsys-like report — the
// input of the ATLAHS 4-stage GOAL pipeline.
func Generate(cfg Config) (*nsys.Report, error) {
	p, err := build(cfg)
	if err != nil {
		return nil, err
	}
	return p.toNsys(), nil
}

// GenerateChakra builds the workload and renders it as a Chakra-like
// execution trace — the input of the AstraSim-lite baseline.
func GenerateChakra(cfg Config) (*chakra.Trace, error) {
	p, err := build(cfg)
	if err != nil {
		return nil, err
	}
	return p.toChakra()
}

// estCommNs roughly estimates a communication op's wall time for
// timestamping the synthetic report (25 GB/s + fixed launch overhead);
// simulation recomputes the real cost, these estimates only shape
// inter-record gaps.
func estCommNs(bytes int64) int64 {
	return bytes/25 + 20_000
}

// toNsys renders the program with per-GPU monotonic clocks.
func (p *program) toNsys() *nsys.Report {
	rep := &nsys.Report{NGPUs: p.ngpus, Comms: p.comms}
	for g := 0; g < p.ngpus; g++ {
		clock := int64(0)
		for _, op := range p.ops[g] {
			rec := nsys.Record{GPU: g, Stream: op.stream, Name: op.name, StartNs: clock}
			switch op.kind {
			case opComp:
				rec.Kind = nsys.KindKernel
				rec.EndNs = clock + op.durNs
			case opColl:
				rec.Kind = nsys.KindNCCL
				rec.Coll = op.coll
				rec.Bytes = op.bytes
				rec.Comm = op.comm
				rec.Root = op.root
				rec.EndNs = clock + estCommNs(op.bytes)
			case opSend:
				rec.Kind = nsys.KindNCCL
				rec.Coll = nsys.CollSend
				rec.Bytes = op.bytes
				rec.Comm = op.comm
				rec.Peer = op.peer
				rec.EndNs = clock + estCommNs(op.bytes)
			case opRecv:
				rec.Kind = nsys.KindNCCL
				rec.Coll = nsys.CollRecv
				rec.Bytes = op.bytes
				rec.Comm = op.comm
				rec.Peer = op.peer
				rec.EndNs = clock + estCommNs(op.bytes)
			}
			clock = rec.EndNs
			rep.Records = append(rep.Records, rec)
		}
	}
	return rep
}

var nsysToChakraColl = map[string]string{
	nsys.CollAllReduce:     chakra.CollAllReduce,
	nsys.CollAllGather:     chakra.CollAllGather,
	nsys.CollReduceScatter: chakra.CollReduceScatter,
	nsys.CollAllToAll:      chakra.CollAllToAll,
	nsys.CollBroadcast:     chakra.CollBroadcast,
}

// toChakra renders the program as one node graph per rank with sequential
// control dependencies (the shape PyTorch+Kineto merges produce).
func (p *program) toChakra() (*chakra.Trace, error) {
	t := &chakra.Trace{Ranks: make([][]chakra.Node, p.ngpus)}
	tag := int64(0)
	for g := 0; g < p.ngpus; g++ {
		var b chakra.Builder
		for _, op := range p.ops[g] {
			switch op.kind {
			case opComp:
				b.AddComp(op.name, op.durNs)
			case opColl:
				ct, ok := nsysToChakraColl[op.coll]
				if !ok {
					return nil, fmt.Errorf("llm: no chakra mapping for collective %q", op.coll)
				}
				b.AddColl(ct, op.bytes, op.comm)
			case opSend:
				members := p.comms[op.comm]
				b.AddSend(op.bytes, members[op.peer], tag)
				tag++
			case opRecv:
				members := p.comms[op.comm]
				b.AddRecv(op.bytes, members[op.peer], tag)
				tag++
			}
		}
		t.Ranks[g] = b.Nodes()
	}
	return t, nil
}

// Summary describes a generated workload for reports.
type Summary struct {
	GPUs      int
	Records   int
	Comms     int
	CollBytes int64
	P2PBytes  int64
	ComputeNs int64
}

// Summarize builds a Summary from a generated report.
func Summarize(rep *nsys.Report) Summary {
	s := Summary{GPUs: rep.NGPUs, Records: len(rep.Records), Comms: len(rep.Comms)}
	for i := range rep.Records {
		r := &rep.Records[i]
		switch {
		case r.Kind == nsys.KindKernel:
			s.ComputeNs += r.EndNs - r.StartNs
		case r.Coll == nsys.CollSend || r.Coll == nsys.CollRecv:
			s.P2PBytes += r.Bytes
		default:
			s.CollBytes += r.Bytes
		}
	}
	return s
}

// Package chakra implements a Chakra-like execution-trace format (Sridharan
// et al., 2023) — the input format of the AstraSim baseline the paper
// compares against (§5.2, Fig 9). Like the real Chakra ET, a trace is one
// node graph per rank where every node carries a type, explicit dependency
// lists and a set of named attributes; compute nodes additionally describe
// their kernels. The rendering here is verbose JSON (the real format is
// protobuf): the per-node attribute objects are what make Chakra traces
// several times larger than the equivalent binary GOAL files, which is the
// effect Fig 9 measures.
package chakra

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"atlahs/internal/goal"
)

// Node types.
const (
	NodeComp     = "COMP_NODE"
	NodeCollComm = "COMM_COLL_NODE"
	NodeSendComm = "COMM_SEND_NODE"
	NodeRecvComm = "COMM_RECV_NODE"
)

// Collective types for the comm_type attribute.
const (
	CollAllReduce     = "ALL_REDUCE"
	CollAllGather     = "ALL_GATHER"
	CollReduceScatter = "REDUCE_SCATTER"
	CollAllToAll      = "ALL_TO_ALL"
	CollBroadcast     = "BROADCAST"
)

// WorldGroup is the comm_group name that means every rank of the trace.
const WorldGroup = "world"

// Attr is one named attribute; exactly one value field is set.
type Attr struct {
	Name      string  `json:"name"`
	Int64Val  *int64  `json:"int64_val,omitempty"`
	StringVal *string `json:"string_val,omitempty"`
}

// IntAttr builds an integer attribute.
func IntAttr(name string, v int64) Attr { return Attr{Name: name, Int64Val: &v} }

// StrAttr builds a string attribute.
func StrAttr(name, v string) Attr { return Attr{Name: name, StringVal: &v} }

// Node is one vertex of a rank's execution graph.
type Node struct {
	ID       int64   `json:"id"`
	Name     string  `json:"name"`
	Type     string  `json:"type"`
	CtrlDeps []int64 `json:"ctrl_deps"`
	DataDeps []int64 `json:"data_deps"`
	Attrs    []Attr  `json:"attrs"`
}

// Attr returns the named attribute, or nil.
func (n *Node) Attr(name string) *Attr {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			return &n.Attrs[i]
		}
	}
	return nil
}

// IntAttrOr returns the named int attribute or a default.
func (n *Node) IntAttrOr(name string, def int64) int64 {
	if a := n.Attr(name); a != nil && a.Int64Val != nil {
		return *a.Int64Val
	}
	return def
}

// StrAttrOr returns the named string attribute or a default.
func (n *Node) StrAttrOr(name, def string) string {
	if a := n.Attr(name); a != nil && a.StringVal != nil {
		return *a.StringVal
	}
	return def
}

// Trace is a complete multi-rank Chakra-like execution trace.
type Trace struct {
	Ranks [][]Node
}

// NumRanks returns the rank count.
func (t *Trace) NumRanks() int { return len(t.Ranks) }

// Validate checks IDs and dependency references.
func (t *Trace) Validate() error {
	for r, nodes := range t.Ranks {
		ids := make(map[int64]bool, len(nodes))
		for i := range nodes {
			n := &nodes[i]
			if ids[n.ID] {
				return fmt.Errorf("chakra: rank %d: duplicate node id %d", r, n.ID)
			}
			ids[n.ID] = true
		}
		for i := range nodes {
			for _, deps := range [2][]int64{nodes[i].CtrlDeps, nodes[i].DataDeps} {
				for _, d := range deps {
					if !ids[d] {
						return fmt.Errorf("chakra: rank %d node %d: dependency %d not found", r, nodes[i].ID, d)
					}
				}
			}
		}
	}
	return nil
}

type header struct {
	Format string `json:"format"`
	NRanks int    `json:"nranks"`
}

type rankDoc struct {
	Rank  int    `json:"rank"`
	Nodes []Node `json:"nodes"`
}

const formatName = "atlahs-chakra-et-v1"

// WriteTo serialises the trace as JSON lines: a header followed by one
// rank document per line.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var n int64
	hdr, err := json.Marshal(header{Format: formatName, NRanks: t.NumRanks()})
	if err != nil {
		return 0, err
	}
	c, err := bw.Write(append(hdr, '\n'))
	n += int64(c)
	if err != nil {
		return n, err
	}
	enc := json.NewEncoder(bw)
	for r := range t.Ranks {
		before := bw.Buffered()
		if err := enc.Encode(rankDoc{Rank: r, Nodes: t.Ranks[r]}); err != nil {
			return n, err
		}
		n += int64(bw.Buffered() - before)
	}
	return n, bw.Flush()
}

// ParseBytes parses a JSON-lines trace held in memory.
func ParseBytes(b []byte) (*Trace, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	var hdr header
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("chakra: reading header: %w", err)
	}
	if hdr.Format != formatName {
		return nil, fmt.Errorf("chakra: unknown format %q", hdr.Format)
	}
	if hdr.NRanks <= 0 {
		return nil, fmt.Errorf("chakra: bad rank count %d", hdr.NRanks)
	}
	if hdr.NRanks > goal.MaxTextRanks {
		return nil, fmt.Errorf("chakra: rank count %d exceeds the limit %d", hdr.NRanks, goal.MaxTextRanks)
	}
	t := &Trace{Ranks: make([][]Node, hdr.NRanks)}
	for {
		var doc rankDoc
		if err := dec.Decode(&doc); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("chakra: reading rank document: %w", err)
		}
		if doc.Rank < 0 || doc.Rank >= hdr.NRanks {
			return nil, fmt.Errorf("chakra: rank %d out of range", doc.Rank)
		}
		t.Ranks[doc.Rank] = doc.Nodes
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Builder incrementally constructs a rank's node list with automatic IDs
// and sequential control dependencies (the shape PyTorch+Kineto merges
// produce).
type Builder struct {
	nodes  []Node
	nextID int64
}

// AddComp appends a compute node of the given runtime, depending on deps
// (or the previous node if none given).
func (b *Builder) AddComp(name string, runtimeNs int64, deps ...int64) int64 {
	return b.add(Node{
		Name: name,
		Type: NodeComp,
		Attrs: []Attr{
			IntAttr("runtime", runtimeNs),
			IntAttr("num_ops", runtimeNs*2), // synthetic FLOP estimate
			StrAttr("kernel", name),
		},
	}, deps)
}

// AddColl appends a collective node over the named group.
func (b *Builder) AddColl(collType string, bytes int64, group string, deps ...int64) int64 {
	return b.add(Node{
		Name: collType,
		Type: NodeCollComm,
		Attrs: []Attr{
			StrAttr("comm_type", collType),
			IntAttr("comm_size", bytes),
			StrAttr("comm_group", group),
			StrAttr("involved_dim", "[true]"),
		},
	}, deps)
}

// AddSend appends a point-to-point send node.
func (b *Builder) AddSend(bytes int64, dst int, tag int64, deps ...int64) int64 {
	return b.add(Node{
		Name: "SEND",
		Type: NodeSendComm,
		Attrs: []Attr{
			IntAttr("comm_size", bytes),
			IntAttr("comm_dst", int64(dst)),
			IntAttr("comm_tag", tag),
		},
	}, deps)
}

// AddRecv appends a point-to-point receive node.
func (b *Builder) AddRecv(bytes int64, src int, tag int64, deps ...int64) int64 {
	return b.add(Node{
		Name: "RECV",
		Type: NodeRecvComm,
		Attrs: []Attr{
			IntAttr("comm_size", bytes),
			IntAttr("comm_src", int64(src)),
			IntAttr("comm_tag", tag),
		},
	}, deps)
}

func (b *Builder) add(n Node, deps []int64) int64 {
	n.ID = b.nextID
	b.nextID++
	if len(deps) > 0 {
		n.CtrlDeps = deps
	} else if n.ID > 0 {
		n.CtrlDeps = []int64{n.ID - 1}
	}
	b.nodes = append(b.nodes, n)
	return n.ID
}

// Nodes returns the built node list.
func (b *Builder) Nodes() []Node { return b.nodes }

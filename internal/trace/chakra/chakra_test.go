package chakra

import (
	"bytes"
	"reflect"
	"testing"
)

func sampleTrace() *Trace {
	t := &Trace{Ranks: make([][]Node, 2)}
	for r := 0; r < 2; r++ {
		var b Builder
		c1 := b.AddComp("fwd_gemm", 120_000)
		b.AddColl(CollAllReduce, 1<<20, "world", c1)
		b.AddComp("opt_step", 40_000)
		t.Ranks[r] = b.Nodes()
	}
	return t
}

func TestBuilderShape(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	nodes := tr.Ranks[0]
	if len(nodes) != 3 {
		t.Fatalf("nodes=%d", len(nodes))
	}
	if nodes[1].Type != NodeCollComm || nodes[1].StrAttrOr("comm_type", "") != CollAllReduce {
		t.Fatalf("collective node wrong: %+v", nodes[1])
	}
	if nodes[1].IntAttrOr("comm_size", 0) != 1<<20 {
		t.Fatal("comm_size lost")
	}
	// implicit sequential ctrl dep
	if len(nodes[2].CtrlDeps) != 1 || nodes[2].CtrlDeps[0] != nodes[1].ID {
		t.Fatalf("implicit chaining broken: %+v", nodes[2])
	}
}

func TestAttrHelpers(t *testing.T) {
	n := Node{Attrs: []Attr{IntAttr("x", 7), StrAttr("s", "v")}}
	if n.IntAttrOr("x", 0) != 7 || n.StrAttrOr("s", "") != "v" {
		t.Fatal("attr lookup broken")
	}
	if n.IntAttrOr("missing", 42) != 42 || n.StrAttrOr("missing", "d") != "d" {
		t.Fatal("defaults broken")
	}
	if n.Attr("nope") != nil {
		t.Fatal("phantom attribute")
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo count %d != %d", n, buf.Len())
	}
	got, err := ParseBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Ranks, got.Ranks) {
		t.Fatal("round trip mismatch")
	}
}

func TestValidateErrors(t *testing.T) {
	tr := &Trace{Ranks: [][]Node{{
		{ID: 1, Type: NodeComp},
		{ID: 1, Type: NodeComp},
	}}}
	if tr.Validate() == nil {
		t.Fatal("duplicate ids accepted")
	}
	tr2 := &Trace{Ranks: [][]Node{{
		{ID: 1, Type: NodeComp, CtrlDeps: []int64{99}},
	}}}
	if tr2.Validate() == nil {
		t.Fatal("dangling dependency accepted")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseBytes([]byte("")); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := ParseBytes([]byte(`{"format":"wrong","nranks":1}`)); err == nil {
		t.Fatal("wrong format accepted")
	}
	if _, err := ParseBytes([]byte(`{"format":"atlahs-chakra-et-v1","nranks":1}` + "\n" + `{"rank":5,"nodes":[]}`)); err == nil {
		t.Fatal("rank out of range accepted")
	}
}

func TestSendRecvNodes(t *testing.T) {
	var b Builder
	s := b.AddSend(4096, 3, 7)
	r := b.AddRecv(4096, 1, 7, s)
	nodes := b.Nodes()
	if nodes[0].Type != NodeSendComm || nodes[0].IntAttrOr("comm_dst", -1) != 3 {
		t.Fatalf("send node wrong: %+v", nodes[0])
	}
	if nodes[1].Type != NodeRecvComm || nodes[1].IntAttrOr("comm_src", -1) != 1 {
		t.Fatalf("recv node wrong: %+v", nodes[1])
	}
	if r != s+1 {
		t.Fatal("ids not sequential")
	}
}

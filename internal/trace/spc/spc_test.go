package spc

import (
	"bytes"
	"reflect"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	tr := &Trace{Ops: []Op{
		{ASU: 0, LBA: 100, Bytes: 512, Write: true, Time: 0},
		{ASU: 3, LBA: 2048, Bytes: 4096, Write: false, Time: 0.000123},
		{ASU: 1, LBA: 7, Bytes: 1024, Write: true, Time: 1.5},
	}}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Ops, got.Ops) {
		t.Fatalf("round trip mismatch: %+v vs %+v", tr.Ops, got.Ops)
	}
}

func TestParseRealWorldFormat(t *testing.T) {
	// format as published by the UMass repository (with comments/blanks)
	src := `
# Financial1 excerpt
0,303567,3584,w,0.000000
1,55590,3072,r,0.010518
`
	tr, err := ParseBytes([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Ops) != 2 || !tr.Ops[0].Write || tr.Ops[1].Write {
		t.Fatalf("parsed %+v", tr.Ops)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"1,2,3,w",                // missing field
		"x,2,3,w,0.5",            // bad ASU
		"1,x,3,w,0.5",            // bad LBA
		"1,2,x,w,0.5",            // bad size
		"1,2,3,q,0.5",            // bad opcode
		"1,2,3,w,zero",           // bad timestamp
		"1,2,0,w,0.5",            // zero size fails validation
		"1,2,3,w,1\n1,2,3,w,0.5", // time goes backwards
	}
	for _, src := range cases {
		if _, err := ParseBytes([]byte(src)); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atlahs/results"
	"atlahs/sim"
)

// fixture is one frontend's trace: content its sniffer claims, and the
// same trace behind a lead-in that keeps every sniffer off it (a comment
// longer than the sniff window, or white space before the JSON header),
// which only the extension or -frontend can resolve.
type fixture struct {
	frontend, ext  string
	raw, unsniffed string
}

func fixtures() []fixture {
	pad := strings.Repeat("x", 5000) + "\n"
	goalText := "num_ranks 2\nrank 0 {\nl1: send 64b to 1 tag 0\n}\nrank 1 {\nl1: recv 64b from 0 tag 0\n}\n"
	mpi := "mpitrace nranks 2\n" +
		"rank 0 {\nMPI_Isend dst=1 bytes=4096 tag=0 req=1 t=100:200\nMPI_Wait req=1 t=200:300\n}\n" +
		"rank 1 {\nMPI_Irecv src=0 bytes=4096 tag=0 req=1 t=100:200\nMPI_Wait req=1 t=200:300\n}\n"
	spc := "0,303567,3584,w,0.000000\n1,55590,3072,r,0.010518\n"
	nsys := `{"format":"atlahs-nsys-v1","ngpus":8,"comms":{"world":[0,1,2,3,4,5,6,7]}}` + "\n"
	for gpu := 0; gpu < 8; gpu++ {
		nsys += fmt.Sprintf(`{"gpu":%d,"stream":0,"kind":"nccl","name":"ar","start_ns":1000,"end_ns":9000,"coll":"allreduce","bytes":1048576,"comm":"world"}`+"\n", gpu)
	}
	chakra := `{"format":"atlahs-chakra-et-v1","nranks":2}` + "\n"
	for rank := 0; rank < 2; rank++ {
		chakra += fmt.Sprintf(`{"rank":%d,"nodes":[{"id":0,"name":"ALL_REDUCE","type":"COMM_COLL_NODE","attrs":[`+
			`{"name":"comm_type","string_val":"ALL_REDUCE"},{"name":"comm_size","int64_val":65536},{"name":"comm_group","string_val":"world"}]}]}`+"\n", rank)
	}
	return []fixture{
		{"goal", ".goal", goalText, "// " + pad + goalText},
		{"mpi", ".mpi", mpi, "# " + pad + mpi},
		{"spc", ".spc", spc, "# " + pad + spc},
		{"nsys", ".nsys", nsys, "\n" + nsys},
		{"chakra", ".et", chakra, "\n" + chakra},
	}
}

// TestMineEveryFrontendThreeWays: mine reads each frontend's trace when it
// is sniffed, when only the extension identifies it and when -frontend
// names it, records the frontend that was resolved, and mines the schedule
// sim.ConvertTrace gives for the same bytes.
func TestMineEveryFrontendThreeWays(t *testing.T) {
	dir := t.TempDir()
	for _, fx := range fixtures() {
		ways := []struct {
			label, file, content string
			extra                []string
		}{
			{"sniffed", "sniffed-" + fx.frontend, fx.raw, nil},
			{"extension", "ext-" + fx.frontend + fx.ext, fx.unsniffed, nil},
			{"named", "named-" + fx.frontend, fx.unsniffed, []string{"-frontend", fx.frontend}},
		}
		for _, w := range ways {
			in, out := filepath.Join(dir, w.file), filepath.Join(dir, w.file+".model.json")
			if err := os.WriteFile(in, []byte(w.content), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := mine(append([]string{"-in", in, "-out", out}, w.extra...)); err != nil {
				t.Errorf("%s/%s: %v", fx.frontend, w.label, err)
				continue
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := sim.ConvertTrace([]byte(w.content), fx.frontend, nil)
			if err != nil {
				t.Fatal(err)
			}
			model, err := sim.MineModel(sched, fmt.Sprintf("mined from %s (frontend %s)", in, fx.frontend))
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := results.EncodeModelJSON(&want, model); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s/%s: model differs from mining sim.ConvertTrace's schedule\ngot  %s\nwant %s",
					fx.frontend, w.label, got, want.Bytes())
			}
		}
	}
}

func TestMineFailures(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.dat")
	if err := os.WriteFile(garbage, []byte("total garbage, no format"), 0o644); err != nil {
		t.Fatal(err)
	}
	for label, tc := range map[string]struct {
		args []string
		want string
	}{
		"unreadable input":  {[]string{"-in", filepath.Join(dir, "missing.nsys")}, "no such file"},
		"undetectable file": {[]string{"-in", garbage}, "cannot detect trace format"},
		"unknown frontend":  {[]string{"-in", garbage, "-frontend", "nope"}, "unknown frontend"},
		"wrong frontend":    {[]string{"-in", garbage, "-frontend", "nsys"}, garbage},
	} {
		out := filepath.Join(dir, "out.json")
		err := mine(append(tc.args, "-out", out))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", label, err, tc.want)
		}
		if _, statErr := os.Stat(out); statErr == nil {
			t.Errorf("%s: a model file was written", label)
		}
	}
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"atlahs/sim"
)

// Flag values the tests pass, all different from the flags' defaults.
const (
	testGPUsPerNode = 2
	testChannels    = 2
	testHosts       = 3
)

// fixture is one frontend's trace: content its sniffer claims, and the
// same trace behind a lead-in that keeps every sniffer off it (a comment
// longer than the sniff window, or white space before the JSON header),
// which only the extension or -frontend can resolve.
type fixture struct {
	frontend, ext  string
	raw, unsniffed string
	// flags are the conversion flags this frontend reads, set to the
	// test's values, and cfg is the config they mean for it.
	flags []string
	cfg   any
}

func fixtures() []fixture {
	pad := strings.Repeat("x", 5000) + "\n"
	goalText := "num_ranks 2\nrank 0 {\nl1: send 64b to 1 tag 0\n}\nrank 1 {\nl1: recv 64b from 0 tag 0\n}\n"
	mpi := "mpitrace nranks 2\n" +
		"rank 0 {\nMPI_Isend dst=1 bytes=4096 tag=0 req=1 t=100:200\nMPI_Wait req=1 t=200:300\nMPI_Allreduce bytes=8 t=300:800\n}\n" +
		"rank 1 {\nMPI_Irecv src=0 bytes=4096 tag=0 req=1 t=100:200\nMPI_Wait req=1 t=200:300\nMPI_Allreduce bytes=8 t=300:800\n}\n"
	spc := "0,303567,3584,w,0.000000\n1,55590,3072,r,0.010518\n2,1000,4096,w,0.020000\n"
	nsys := `{"format":"atlahs-nsys-v1","ngpus":4,"comms":{"world":[0,1,2,3]}}` + "\n"
	chakra := `{"format":"atlahs-chakra-et-v1","nranks":2}` + "\n"
	for gpu := 0; gpu < 4; gpu++ {
		nsys += fmt.Sprintf(`{"gpu":%d,"stream":0,"kind":"kernel","name":"fwd","start_ns":0,"end_ns":1000}`+"\n"+
			`{"gpu":%d,"stream":0,"kind":"nccl","name":"ar","start_ns":1000,"end_ns":9000,"coll":"allreduce","bytes":1048576,"comm":"world"}`+"\n", gpu, gpu)
	}
	for rank := 0; rank < 2; rank++ {
		chakra += fmt.Sprintf(`{"rank":%d,"nodes":[`+
			`{"id":0,"name":"fwd","type":"COMP_NODE","attrs":[{"name":"runtime","int64_val":1000}]},`+
			`{"id":1,"name":"ALL_REDUCE","type":"COMM_COLL_NODE","ctrl_deps":[0],"attrs":[{"name":"comm_type","string_val":"ALL_REDUCE"},{"name":"comm_size","int64_val":65536},{"name":"comm_group","string_val":"world"}]}]}`+"\n", rank)
	}
	spcFlags := []string{"-hosts", strconv.Itoa(testHosts)}
	nsysFlags := []string{"-gpus-per-node", strconv.Itoa(testGPUsPerNode), "-channels", strconv.Itoa(testChannels)}
	return []fixture{
		{"goal", ".goal", goalText, "// " + pad + goalText, nil, nil},
		{"mpi", ".mpi", mpi, "# " + pad + mpi, nil, nil},
		{"spc", ".spc", spc, "# " + pad + spc, spcFlags, sim.SPCConfig{Hosts: testHosts}},
		{"nsys", ".nsys", nsys, "\n" + nsys, nsysFlags, sim.NsysConfig{GPUsPerNode: testGPUsPerNode, Channels: testChannels}},
		{"chakra", ".et", chakra, "\n" + chakra, nil, nil},
	}
}

// binaryGOAL is what schedgen must write for content converted by the
// named frontend under cfg.
func binaryGOAL(t *testing.T, content, frontend string, cfg any) []byte {
	t.Helper()
	s, err := sim.ConvertTrace([]byte(content), frontend, cfg)
	if err != nil {
		t.Fatalf("%s: %v", frontend, err)
	}
	var buf bytes.Buffer
	if err := sim.WriteGOALBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConvertsEveryFrontendThreeWays: each frontend's trace converts when
// sniffed, when only the extension identifies it and when -frontend names
// it; the frontend that was resolved is reported, it is handed the config
// the flags mean for it, and the file written is sim.ConvertTrace's
// schedule.
func TestConvertsEveryFrontendThreeWays(t *testing.T) {
	dir := t.TempDir()
	for _, fx := range fixtures() {
		// Sniffing comes before the extension, and the flags reach the
		// sniffed frontend's config, not the one the extension names.
		misleading := ".spc"
		if fx.frontend == "spc" {
			misleading = ".nsys"
		}
		ways := []struct {
			label, file, content string
			extra                []string
		}{
			{"sniffed", "sniffed-" + fx.frontend + misleading, fx.raw, nil},
			{"extension", "ext-" + fx.frontend + fx.ext, fx.unsniffed, nil},
			{"named", "named-" + fx.frontend, fx.unsniffed, []string{"-frontend", fx.frontend}},
		}
		for _, w := range ways {
			in, out := filepath.Join(dir, w.file), filepath.Join(dir, w.file+".out")
			if err := os.WriteFile(in, []byte(w.content), 0o644); err != nil {
				t.Fatal(err)
			}
			var stderr bytes.Buffer
			args := append(append([]string{"-in", in, "-out", out}, fx.flags...), w.extra...)
			if err := run(args, &stderr); err != nil {
				t.Errorf("%s/%s: %v", fx.frontend, w.label, err)
				continue
			}
			if want := "schedgen: " + fx.frontend + " frontend: wrote "; !strings.HasPrefix(stderr.String(), want) {
				t.Errorf("%s/%s: reported %q, want prefix %q", fx.frontend, w.label, stderr.String(), want)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, binaryGOAL(t, w.content, fx.frontend, fx.cfg)) {
				t.Errorf("%s/%s: output differs from sim.ConvertTrace under %#v", fx.frontend, w.label, fx.cfg)
			}
			// The flag values are live: the defaults convert differently.
			if fx.cfg != nil && bytes.Equal(got, binaryGOAL(t, w.content, fx.frontend, nil)) {
				t.Errorf("%s/%s: output equals the default-config conversion", fx.frontend, w.label)
			}
		}
	}
}

func TestTextOutputDecodesToTheSameSchedule(t *testing.T) {
	fx := fixtures()[1] // mpi
	dir := t.TempDir()
	in, out := filepath.Join(dir, "t.mpi"), filepath.Join(dir, "t.goal")
	if err := os.WriteFile(in, []byte(fx.raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", in, "-out", out, "-text"}, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(binaryGOAL(t, string(text), "goal", nil), binaryGOAL(t, fx.raw, "mpi", nil)) {
		t.Fatal("textual output does not decode to the converted schedule")
	}
}

func TestFailures(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.dat")
	if err := os.WriteFile(garbage, []byte("total garbage, no format"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.spc")
	if err := os.WriteFile(good, []byte(fixtures()[2].raw), 0o644); err != nil {
		t.Fatal(err)
	}
	mpi := filepath.Join(dir, "x.mpi")
	if err := os.WriteFile(mpi, []byte(fixtures()[1].raw), 0o644); err != nil {
		t.Fatal(err)
	}
	for label, tc := range map[string]struct {
		args []string
		want string
	}{
		"unreadable input":       {[]string{"-in", filepath.Join(dir, "missing.nsys")}, "no such file"},
		"undetectable file":      {[]string{"-in", garbage}, "cannot detect trace format"},
		"unknown frontend":       {[]string{"-in", good, "-frontend", "nope"}, "unknown frontend"},
		"wrong frontend":         {[]string{"-in", good, "-frontend", "nsys"}, good},
		"nsys flag on mpi":       {[]string{"-in", mpi, "-gpus-per-node", "8"}, "-gpus-per-node"},
		"spc flag on mpi":        {[]string{"-in", mpi, "-hosts", "2"}, "-hosts"},
		"nsys flag on spc":       {[]string{"-in", good, "-channels", "2"}, "-channels"},
		"nsys flag beside spc's": {[]string{"-in", good, "-hosts", "2", "-gpus-per-node", "8"}, "-gpus-per-node"},
	} {
		out := filepath.Join(dir, "out.bin")
		err := run(append(tc.args, "-out", out), new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", label, err, tc.want)
		}
		if _, statErr := os.Stat(out); statErr == nil {
			t.Errorf("%s: an output file was written", label)
		}
	}
}

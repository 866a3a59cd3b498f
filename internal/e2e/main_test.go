// Package e2e drives the toolchain's binaries end to end. TestMain builds
// atlahs, atlahsd, atlahs-analyze, atlahs-synth, experiments and tracegen
// once; each test then runs them as a user would — over real files,
// processes, signals and loopback sockets — and reads what they write
// through the decoders the toolchain itself uses. The package holds tests
// only. It is skipped under -short and where no go binary is on PATH.
package e2e

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"atlahs/internal/service"
	"atlahs/results"
)

// commands are the binaries TestMain builds, by cmd/ directory name.
var commands = []string{"atlahs", "atlahsd", "atlahs-analyze", "atlahs-synth", "experiments", "tracegen"}

var (
	// binDir holds the built commands.
	binDir string
	// skipReason says why nothing was built; empty when binDir is usable.
	skipReason string
)

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(buildAndRun(m))
}

func buildAndRun(m *testing.M) int {
	if testing.Short() {
		skipReason = "builds and runs the binaries; skipped under -short"
		return m.Run()
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		skipReason = "no go binary on PATH"
		return m.Run()
	}
	dir, err := os.MkdirTemp("", "atlahs-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	args := []string{"build", "-o", dir + string(os.PathSeparator)}
	for _, c := range commands {
		args = append(args, "atlahs/cmd/"+c)
	}
	if out, err := exec.Command(goBin, args...).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: go %s: %v\n%s", strings.Join(args, " "), err, out)
		return 1
	}
	binDir = dir
	return m.Run()
}

// bin returns the path of a built command, skipping the test when
// nothing was built.
func bin(t *testing.T, name string) string {
	t.Helper()
	if skipReason != "" {
		t.Skip(skipReason)
	}
	return filepath.Join(binDir, name)
}

// runStatus runs a built command to completion and returns what it wrote
// and its exit status.
func runStatus(t *testing.T, name string, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(bin(t, name), args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("%s: %v", name, err)
	}
	return out.Bytes(), errOut.Bytes(), code
}

// run runs a built command and returns its stdout, failing the test on a
// non-zero exit.
func run(t *testing.T, name string, args ...string) []byte {
	t.Helper()
	stdout, stderr, code := runStatus(t, name, args...)
	if code != 0 {
		t.Fatalf("%s %s: exit %d\n%s", name, strings.Join(args, " "), code, stderr)
	}
	return stdout
}

// decode unmarshals one JSON document, failing the test on error.
func decode(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decoding %T: %v\n%s", v, err, b)
	}
}

// replay runs `atlahs ARGS -json` and checks the run did what it
// scheduled: non-zero executed-op tallies, and every scheduled send
// completed. The tallies are counted at completion, so zero would mean
// the conversion or the simulation silently degenerated.
func replay(t *testing.T, args ...string) service.JSONResult {
	t.Helper()
	var res service.JSONResult
	decode(t, run(t, "atlahs", append(args, "-json")...), &res)
	if res.Ops == 0 || res.Done.Sends == 0 || res.Done.Recvs == 0 || res.Done.Calcs == 0 || res.Done.Sends != res.Sched.Sends {
		t.Fatalf("atlahs %s: degenerate run: %+v", strings.Join(args, " "), res)
	}
	return res
}

// artifacts checks every *.json file in dir is one atlahs.results/v1
// sweep with rows, filed under its own name, and returns the names.
func artifacts(t *testing.T, dir string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := results.DecodeJSON(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(s.Rows) == 0 {
			t.Errorf("%s: sweep %q has no rows", path, s.Name)
		}
		if want := s.Name + ".json"; filepath.Base(path) != want {
			t.Errorf("%s holds sweep %q (want file name %s)", path, s.Name, want)
		}
		names[s.Name] = true
	}
	return names
}

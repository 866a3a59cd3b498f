package atlahs

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleCompiles puts the benchmark module under tier-1. bench/
// is its own module (replace atlahs => ../), so `go build ./...` and
// `go vet ./...` here never compile it, yet it imports internal packages
// and sim by name: a symbol this module removes or renames must fail
// here, not in the benchmark pipeline. Like bench/run.sh it builds with
// no workspace and no network.
func TestBenchModuleCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("vets a second module; skipped under -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	cmd := exec.Command(goBin, "-C", "bench", "vet", "./...")
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOWORK=off", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go -C bench vet ./...: %v\n%s", err, out)
	}
}

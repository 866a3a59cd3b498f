package sim

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"atlahs/internal/goal"
	"atlahs/internal/workload/micro"
)

// registerUnvalidatingFrontend registers, once per process, a frontend
// standing for a third party's: it builds a two-rank ping, or a self-send
// for the input "self-send", and does not validate what it builds.
var registerUnvalidatingFrontend = sync.OnceFunc(func() {
	RegisterFrontend(Frontend{Name: "unvalidating-test", Convert: func(b []byte, _ any) (*Schedule, error) {
		bld := goal.NewBuilder(2)
		if bytes.Equal(b, []byte("self-send")) {
			bld.Rank(0).Send(8, 0, 0)
			return bld.Build(), nil
		}
		bld.Rank(0).Send(8, 1, 0)
		bld.Rank(1).Recv(8, 0, 0)
		return bld.Build(), nil
	}})
})

// TestResolvedRunsValidateOnce: a schedule is checked once per run. One
// that a run's own resolution made — decoded GOAL, a converted trace, a
// built-in generator's, a composition — was validated by its producer
// (goal.ParseBinary, the converters, MustBuild, Compose), and Run does not
// check it again, pinned by ResolveSpec or not. A caller's
// Workload.Schedule and a third-party frontend's schedule are checked by
// Run, once, and refused when invalid — also when the caller breaks a
// schedule after ResolveSpec pinned it.
func TestResolvedRunsValidateOnce(t *testing.T) {
	registerUnvalidatingFrontend()
	checks := 0
	defer func(v func(*goal.Schedule) error) { validate = v }(validate)
	validate = func(s *goal.Schedule) error {
		checks++
		return s.Validate()
	}
	var bin bytes.Buffer
	if err := goal.WriteBinary(&bin, micro.Ring(4, 1024)); err != nil {
		t.Fatal(err)
	}
	nsys := []byte(nsysHdr + nsysK0 + nsysAR0 + nsysAR1)
	pinned, _, err := ResolveSpec(Spec{Workload: Workload{GoalBytes: bin.Bytes()}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		spec   Spec
		checks int
	}{
		{"GoalBytes", Spec{Workload: Workload{GoalBytes: bin.Bytes()}}, 0},
		{"pinned GoalBytes", pinned, 0},
		{"nsys Trace", Spec{Workload: Workload{Trace: nsys}}, 0},
		{"Synthetic bsp", Spec{Workload: Workload{Synthetic: &Synthetic{Pattern: "bsp", Ranks: 4, Bytes: 64}}}, 0},
		{"Jobs", Spec{Jobs: []JobSpec{{Workload{GoalBytes: bin.Bytes()}}, {Workload{Synthetic: &Synthetic{Pattern: "ring", Ranks: 2, Bytes: 64}}}}}, 0},
		{"Schedule", Spec{Workload: Workload{Schedule: micro.Ring(4, 1024)}}, 1},
		{"third-party frontend", Spec{Workload: Workload{Trace: []byte("ping"), Frontend: "unvalidating-test"}}, 1},
	} {
		checks = 0
		if _, err := Run(context.Background(), c.spec); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if checks != c.checks {
			t.Errorf("%s: Run checked the schedule %d times, want %d", c.name, checks, c.checks)
		}
	}

	selfSend := goal.NewBuilder(2)
	selfSend.Rank(0).Send(8, 0, 0)
	broken := micro.Ring(2, 64)
	brokenPin, _, err := ResolveSpec(Spec{Workload: Workload{Schedule: broken}})
	if err != nil {
		t.Fatal(err)
	}
	broken.Ranks[0] = selfSend.Build().Ranks[0]
	for name, spec := range map[string]Spec{
		"Schedule":             {Workload: Workload{Schedule: broken}},
		"Schedule pinned":      brokenPin,
		"third-party frontend": {Workload: Workload{Trace: []byte("self-send"), Frontend: "unvalidating-test"}},
	} {
		if _, err := Run(context.Background(), spec); err == nil || !strings.Contains(err.Error(), "self-send not allowed") {
			t.Errorf("%s: invalid schedule ran: %v", name, err)
		}
	}
}

// TestValidatingProducersAreBuiltIn: every producer Run trusts to have
// validated its schedule is one of this module's, registered under that
// name, and every built-in frontend and generator is trusted.
func TestValidatingProducersAreBuiltIn(t *testing.T) {
	want := map[string]bool{"model": true}
	for _, name := range []string{"goal", "nsys", "mpi", "spc", "chakra"} {
		if _, ok := LookupFrontend(name); !ok {
			t.Errorf("frontend %q is not registered", name)
		}
		want[name] = true
	}
	for _, name := range builtinGenerators {
		want["generator "+name] = true
	}
	if len(want) != len(validatingProducers) {
		t.Errorf("validatingProducers lists %d producers, want %d", len(validatingProducers), len(want))
	}
	for name := range want {
		if !validatingProducers[name] {
			t.Errorf("built-in producer %q is not in validatingProducers", name)
		}
	}
}

// TestLongVarintsFingerprintAsCanonical: a binary GOAL file that spells a
// dependency count or delta in more bytes than it needs decodes to the
// canonical file's schedule, so both fingerprint alike.
func TestLongVarintsFingerprintAsCanonical(t *testing.T) {
	b := goal.NewBuilder(1)
	rb := b.Rank(0)
	first := rb.Calc(1)
	rb.Require(rb.Calc(2), first)
	var canonical bytes.Buffer
	if err := goal.WriteBinary(&canonical, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	// requires: op 0 none, op 1 one edge of delta 1; irequires: none
	tail := []byte{0, 1, 2, 0, 0}
	head, ok := bytes.CutSuffix(canonical.Bytes(), tail)
	if !ok {
		t.Fatalf("encoding %x does not end in %x", canonical.Bytes(), tail)
	}
	long := append(append([]byte{}, head...), 0x80, 0x00, 0x81, 0x00, 0x82, 0x80, 0x00, 0, 0)
	want, err := Fingerprint(Spec{Workload: Workload{GoalBytes: canonical.Bytes()}})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Fingerprint(Spec{Workload: Workload{GoalBytes: long}}); err != nil || got != want {
		t.Fatalf("long varints fingerprint %s (%v), the canonical file %s", got, err, want)
	}
}

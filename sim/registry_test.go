package sim

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"atlahs/internal/core"
	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/workload/micro"
)

// fakeBackend is a minimal registerable backend for registry tests.
type fakeBackend struct{ name string }

func (f *fakeBackend) Name() string { return f.name }
func (f *fakeBackend) Setup(nranks int, eng engine.Sim, over core.CompletionFunc) error {
	return nil
}
func (f *fakeBackend) Send(core.SendEvent) {}
func (f *fakeBackend) Recv(core.RecvEvent) {}
func (f *fakeBackend) Calc(core.CalcEvent) {}

func TestBuiltinBackendsRegistered(t *testing.T) {
	got := Backends()
	for _, want := range []string{"fluid", "lgs", "pkt"} {
		found := false
		for _, name := range got {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("builtin backend %q missing from registry %v", want, got)
		}
	}
	def, ok := Lookup("lgs")
	if !ok || !def.Parallel {
		t.Fatalf("lgs lookup = (%+v, %v), want a parallel-capable definition", def, ok)
	}
	for _, name := range []string{"pkt", "fluid"} {
		def, ok := Lookup(name)
		if !ok || def.Parallel {
			t.Fatalf("%s lookup = (%+v, %v), want a serial-only definition", name, def, ok)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register(Definition{
		Name: "registry-test-dup",
		New: func(cfg any, env Env) (core.Backend, error) {
			return &fakeBackend{name: "registry-test-dup"}, nil
		},
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate Register did not panic")
		}
		if !strings.Contains(r.(string), "registered twice") {
			t.Fatalf("panic %q does not name the duplicate registration", r)
		}
	}()
	Register(Definition{
		Name: "registry-test-dup",
		New: func(cfg any, env Env) (core.Backend, error) {
			return &fakeBackend{name: "registry-test-dup"}, nil
		},
	})
}

func TestRegisterRejectsBadDefinitions(t *testing.T) {
	for _, def := range []Definition{
		{Name: "", New: func(any, Env) (core.Backend, error) { return nil, nil }},
		{Name: "no-factory"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Register(%+v) did not panic", def)
				}
			}()
			Register(def)
		}()
	}
}

func TestRunUnknownBackend(t *testing.T) {
	_, err := Run(context.Background(), Spec{Workload: Workload{Schedule: micro.Ring(2, 1024)},
		Backend: "no-such-simulator"})
	if err == nil {
		t.Fatal("expected unknown-backend error")
	}
	if !strings.Contains(err.Error(), "no-such-simulator") || !strings.Contains(err.Error(), "lgs") {
		t.Fatalf("error %q should name the unknown backend and list registered ones", err)
	}
}

func TestRunConfigTypeMismatch(t *testing.T) {
	for _, c := range []struct {
		backend string
		cfg     any
	}{
		{"lgs", PktConfig{}},
		{"pkt", LGSConfig{}},
		{"fluid", "not even a struct"},
	} {
		_, err := Run(context.Background(), Spec{Workload: Workload{Schedule: micro.Ring(2, 1024)},
			Backend: c.backend,
			Config:  c.cfg})
		if err == nil {
			t.Fatalf("%s with %T config: expected mismatch error", c.backend, c.cfg)
		}
		if !strings.Contains(err.Error(), c.backend) || !strings.Contains(err.Error(), "config") {
			t.Fatalf("%s mismatch error %q should name the backend and the config", c.backend, err)
		}
	}
}

func TestConfigAsAcceptsValuePointerAndNil(t *testing.T) {
	want := LGSConfig{Params: HPCParams()}
	if got, err := ConfigAs[LGSConfig]("lgs", want); err != nil || got != want {
		t.Fatalf("value: (%+v, %v)", got, err)
	}
	if got, err := ConfigAs[LGSConfig]("lgs", &want); err != nil || got != want {
		t.Fatalf("pointer: (%+v, %v)", got, err)
	}
	if got, err := ConfigAs[LGSConfig]("lgs", nil); err != nil || got != (LGSConfig{}) {
		t.Fatalf("nil: (%+v, %v)", got, err)
	}
	if got, err := ConfigAs[LGSConfig]("lgs", (*LGSConfig)(nil)); err != nil || got != (LGSConfig{}) {
		t.Fatalf("typed nil: (%+v, %v)", got, err)
	}
}

func TestThirdPartyBackendRuns(t *testing.T) {
	// A third-party simulator: completes every op instantly at issue time.
	Register(Definition{
		Name: "instant-test",
		New: func(cfg any, env Env) (core.Backend, error) {
			return &instantBackend{}, nil
		},
	})
	res, err := Run(context.Background(), Spec{Workload: Workload{Schedule: micro.Ring(4, 1024)},
		Backend: "instant-test"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Runtime != 0 {
		t.Fatalf("instant backend: ops %d runtime %v, want all ops at time zero", res.Ops, res.Runtime)
	}
}

// instantBackend completes everything immediately; the simplest possible
// honour of the ATLAHS contract.
type instantBackend struct {
	eng  engine.Sim
	over core.CompletionFunc
}

func (b *instantBackend) Name() string { return "instant-test" }
func (b *instantBackend) Setup(nranks int, eng engine.Sim, over core.CompletionFunc) error {
	b.eng, b.over = eng, over
	return nil
}
func (b *instantBackend) Send(ev core.SendEvent) {
	h := ev.Handle
	b.eng.Schedule(b.eng.Now(), func() { b.over(h, b.eng.Now()) })
}
func (b *instantBackend) Recv(ev core.RecvEvent) {
	h := ev.Handle
	b.eng.Schedule(b.eng.Now(), func() { b.over(h, b.eng.Now()) })
}
func (b *instantBackend) Calc(ev core.CalcEvent) {
	h := ev.Handle
	b.eng.Schedule(b.eng.Now(), func() { b.over(h, b.eng.Now()) })
}

// TestRegistriesConcurrentUse: third parties may register while runs are
// already resolving names, on any of the three registries (backends,
// frontends, generators — one implementation). Run under -race. The
// registrations outlive the test, so they are well-behaved: other tests
// range over Generators and run what they find.
func TestRegistriesConcurrentUse(t *testing.T) {
	const writers, perWriter = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("concurrent-%d-%d", w, i)
				Register(Definition{Name: name, New: func(any, Env) (core.Backend, error) {
					return &fakeBackend{name: name}, nil
				}})
				RegisterFrontend(Frontend{Name: name, Convert: func(b []byte, _ any) (*Schedule, error) {
					return goal.Decode(b)
				}})
				RegisterGenerator(GeneratorDef{Name: name, New: func(req GenRequest) (*Schedule, error) {
					return micro.Ring(req.Ranks, 64), nil
				}})
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_, be := Lookup("lgs")
				_, fe := LookupFrontend("goal")
				_, gen := LookupGenerator("ring")
				if !be || !fe || !gen {
					t.Errorf("built-ins during concurrent registration: backend lgs %v, frontend goal %v, generator ring %v", be, fe, gen)
				}
				_, _, _ = Backends(), Frontends(), Generators()
			}
		}()
	}
	wg.Wait()
	for kind, names := range map[string][]string{"backends": Backends(), "frontends": Frontends(), "generators": Generators()} {
		found := 0
		for _, n := range names {
			if strings.HasPrefix(n, "concurrent-") {
				found++
			}
		}
		if found != writers*perWriter {
			t.Fatalf("%s: %d of %d concurrent registrations listed", kind, found, writers*perWriter)
		}
	}
}

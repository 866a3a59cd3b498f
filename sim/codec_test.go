package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"atlahs/internal/workload/micro"
	"atlahs/results"
)

// codecSpecs is one wire-worthy spec per built-in backend and frontend —
// the shapes the codec must round-trip (and the fuzz seed corpus).
func codecSpecs() map[string]Spec {
	var sched bytes.Buffer
	if err := WriteGOALBinary(&sched, micro.Ring(3, 512)); err != nil {
		panic(err)
	}
	return map[string]Spec{
		"lgs": {Workload: Workload{Synthetic: &Synthetic{Pattern: "ring", Ranks: 4, Bytes: 1024}},
			Backend: "lgs",
			Config:  LGSConfig{Params: HPCParams()},
			Workers: 4,
		},
		"pkt": {Workload: Workload{GoalBytes: sched.Bytes()},
			Backend: "pkt",
			Config:  PktConfig{HostsPerToR: 8, Oversub: 2, CC: "dctcp"},
			Seed:    7,
		},
		"fluid": {Workload: Workload{Schedule: micro.AllToAll(3, 256)},
			Backend:   "fluid",
			Config:    FluidConfig{JitterFrac: 0.1, Overhead: 1500},
			CalcScale: 1.5,
		},
		"goal-frontend": {Workload: Workload{Trace: []byte("num_ranks 1\nrank 0 {\nl1: calc 5\n}\n")}},
		"nsys":          {Workload: Workload{TracePath: "run.nsys", Frontend: "nsys", FrontendConfig: NsysConfig{GPUsPerNode: 2, Channels: 2}}},
		"mpi": {Workload: Workload{TracePath: "run.mpi", Frontend: "mpi", FrontendConfig: MPIConfig{
			Algos:        map[CollectiveKind]CollectiveAlgo{CollAllreduce: AlgoRing},
			MinComputeNs: 500,
		}},
		},
		"spc": {Workload: Workload{TracePath: "run.spc", Frontend: "spc", FrontendConfig: SPCConfig{Hosts: 2, Replicas: 3}}},
		"chakra": {Workload: Workload{TracePath: "run.et", Frontend: "chakra", FrontendConfig: ChakraConfig{
			WorldGroup: "world",
			Groups:     map[string][]int{"tp": {0, 1}},
		}},
		},
		"model": {Workload: Workload{Model: &ModelGen{Ranks: 12, Seed: 5, Doc: testModelDoc()}},
			Backend: "lgs",
		},
		"model-path": {Workload: Workload{ModelPath: "run.model.json", Model: &ModelGen{Ranks: 24}},
			Backend: "lgs",
		},
		"multi-job": {
			Jobs: []JobSpec{
				{Workload: Workload{Synthetic: &Synthetic{Pattern: "bsp", Ranks: 4, Bytes: 2048, Phases: 2}}},
				{Workload: Workload{TracePath: "ckpt.spc", Frontend: "spc"}},
			},
			Placement: "interleaved",
			Backend:   "lgs",
			Seed:      3,
		},
	}
}

// testModelDoc mines a small model and returns its canonical encoding.
func testModelDoc() []byte {
	m, err := MineModel(micro.BulkSynchronous(4, 2, 1024, 500), "codec-test")
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := results.EncodeModelJSON(&buf, m); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestSpecCodecRoundTrip pins the codec's core contract for every built-in
// backend and frontend: unmarshal(marshal(spec)) is stable under another
// round trip, and re-encoding is byte-identical (one canonical encoding
// per spec).
func TestSpecCodecRoundTrip(t *testing.T) {
	for name, spec := range codecSpecs() {
		t.Run(name, func(t *testing.T) {
			m1, err := MarshalSpec(spec)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			u1, err := UnmarshalSpec(m1)
			if err != nil {
				t.Fatalf("unmarshal: %v\nwire:\n%s", err, m1)
			}
			m2, err := MarshalSpec(u1)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if !bytes.Equal(m1, m2) {
				t.Fatalf("encoding not canonical:\nfirst:\n%s\nsecond:\n%s", m1, m2)
			}
			u2, err := UnmarshalSpec(m2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(u1, u2) {
				t.Fatalf("round trip changed the spec:\nfirst:  %+v\nsecond: %+v", u1, u2)
			}
		})
	}
}

// TestSpecCodecPreservesResults: a spec that went through the wire must
// simulate bit-identically to the original.
func TestSpecCodecPreservesResults(t *testing.T) {
	spec := Spec{Workload: Workload{Schedule: micro.BulkSynchronous(6, 3, 8192, 2000)},
		Backend: "lgs",
		Config:  LGSConfig{Params: AIParams()}}
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), decoded)
	if err != nil {
		t.Fatal(err)
	}
	if got.Runtime != want.Runtime || got.Ops != want.Ops || got.Events != want.Events {
		t.Fatalf("wire round trip changed the simulation: (%v, %d, %d) vs (%v, %d, %d)",
			got.Runtime, got.Ops, got.Events, want.Runtime, want.Ops, want.Events)
	}
}

// specPins are the SHA-256 digests of MarshalSpec's output for every
// codecSpecs entry. A codec rewrite must keep every one.
var specPins = map[string]string{
	"lgs":           "e1e7968ccb152d1f88bb6742369a75bbec0d2f3c79c89d057175fadab2ed6b1e",
	"pkt":           "74f81c2262735f29acb4c9148a14db356e629c1b06e1f4368130b06b14e36fce",
	"fluid":         "c13740a26e351a1c0fb6c0733bce256e92cec29b4617d2f151eb8f5559e52d57",
	"goal-frontend": "a36640c136acbf58e439d33cbe002fedbe4d0bb7bc8bcd3743c619ab70f8389f",
	"nsys":          "537eba28e6f88b6586f5d2b7ff8cfda0c9597422c78cc96b0c88ca480fb6e072",
	"mpi":           "f067cfb42c53d5f4271046a5a4683f9816ae8560451ae2ac82d2422d6f2ce1d1",
	"spc":           "02cf21b58151fc08dda6091447ae1547cf3d93cb2f73f9d5a6c10512b9e8174e",
	"chakra":        "b0ad3e6e98bbc960b9424eacba9e473db34b52076fbc46a49fb020693bcaf213",
	"model":         "598ae28fd44279ef071fce774186090b48587b5883e8c2b8666d130ef2c542c9",
	"model-path":    "b8435bc3329c75c2675f0407216fc0a33af68fc6dfc96049a728efa29a9fc80c",
	"multi-job":     "d8557183df8c2253e0bba9a6a83020e43e415fc16890c90461657f92ec7bc6e2",
}

// TestSpecEncodingPinned: MarshalSpec writes the pinned bytes.
func TestSpecEncodingPinned(t *testing.T) {
	specs := codecSpecs()
	if len(specs) != len(specPins) {
		t.Errorf("%d specs, %d pins", len(specs), len(specPins))
	}
	for name, spec := range specs {
		b, err := MarshalSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != specPins[name] {
			t.Errorf("%s: SHA-256 %s, pinned %s", name, got, specPins[name])
		}
	}
}

func TestMarshalSpecRejects(t *testing.T) {
	ring := &Synthetic{Pattern: "ring", Ranks: 2, Bytes: 64}
	topo, err := FatTree(4, 4, 1, 0, LinkSpec{})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		spec Spec
		want string
	}{
		"observer": {Spec{Workload: Workload{Synthetic: ring},
			Observer: NopObserver{}}, "Observer"},
		"invalid": {Spec{}, "no workload"},
		"unknown-backend": {Spec{Workload: Workload{Synthetic: ring},
			Backend: "nosim"}, "unknown backend"},
		"config-mismatch": {Spec{Workload: Workload{Synthetic: ring},
			Backend: "lgs",
			Config:  PktConfig{}}, "wants a"},
		"explicit-topo": {Spec{Workload: Workload{Synthetic: ring},
			Backend: "pkt",
			Config:  PktConfig{Topo: topo}}, "cannot cross the wire"},
		"mct-sink": {Spec{Workload: Workload{Synthetic: ring},
			Backend: "pkt",
			Config:  PktConfig{MCT: &Sample{}}}, "cannot cross the wire"},
		"fluid-topo": {Spec{Workload: Workload{Synthetic: ring},
			Backend: "fluid",
			Config:  FluidConfig{Topo: topo}}, "cannot cross the wire"},
		"sniffed-config":    {Spec{Workload: Workload{Trace: []byte("x"), FrontendConfig: NsysConfig{}}}, "named explicitly"},
		"goal-config":       {Spec{Workload: Workload{Trace: []byte("x"), Frontend: "goal", FrontendConfig: NsysConfig{}}}, "no wire config type"},
		"frontend-mismatch": {Spec{Workload: Workload{TracePath: "a.nsys", Frontend: "nsys", FrontendConfig: MPIConfig{}}}, "wants a"},
		"placement-sans-job": {Spec{Workload: Workload{Synthetic: ring},
			Placement: "packed"}, "only meaningful with Jobs"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := MarshalSpec(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want it to contain %q", err, c.want)
			}
		})
	}
}

func TestUnmarshalSpecRejects(t *testing.T) {
	cases := map[string]struct {
		wire string
		want string
	}{
		"garbage":          {"nope", "decoding spec"},
		"wrong-schema":     {`{"schema":"atlahs.spec/v2","backend":"lgs"}`, "unknown spec schema"},
		"no-schema":        {`{"backend":"lgs"}`, "unknown spec schema"},
		"unknown-field":    {`{"schema":"atlahs.spec/v1","bakend":"lgs"}`, "unknown field"},
		"trailing-data":    {`{"schema":"atlahs.spec/v1","synthetic":{"pattern":"ring","ranks":2}} {}`, "trailing data"},
		"trailing-garbage": {`{"schema":"atlahs.spec/v1","synthetic":{"pattern":"ring","ranks":2}}x`, "trailing data"},
		"trailing-brace":   {`{"schema":"atlahs.spec/v1","synthetic":{"pattern":"ring","ranks":2}}}`, "trailing data"},
		"trailing-bracket": {`{"schema":"atlahs.spec/v1","synthetic":{"pattern":"ring","ranks":2}}]`, "trailing data"},
		"trailing-closers": {`{"schema":"atlahs.spec/v1","synthetic":{"pattern":"ring","ranks":2}} ]]]`, "trailing data"},
		"two-documents": {`{"schema":"atlahs.spec/v1","synthetic":{"pattern":"ring","ranks":2}}` +
			`{"schema":"atlahs.spec/v1","synthetic":{"pattern":"ring","ranks":2}}`, "trailing data"},
		"unknown-nested-field": {`{"schema":"atlahs.spec/v1","synthetic":{"pattern":"ring","ranks":2,"bogus":1}}`, "decoding spec"},
		"empty":                {"", "decoding spec"},
		"no-workload":          {`{"schema":"atlahs.spec/v1","backend":"lgs"}`, "no workload"},
		"unknown-backend":      {`{"schema":"atlahs.spec/v1","synthetic":{"pattern":"ring","ranks":2},"backend":"nosim"}`, "unknown backend"},
		"unknown-frontend":     {`{"schema":"atlahs.spec/v1","trace_path":"x","frontend":"nofmt"}`, "unknown frontend"},
		"pkt-workers": {`{"schema":"atlahs.spec/v1","synthetic":{"pattern":"ring","ranks":2},"backend":"pkt","workers":4}`,
			"shares fabric state"},
		"bad-config-field": {`{"schema":"atlahs.spec/v1","synthetic":{"pattern":"ring","ranks":2},"backend":"lgs","config":{"Nope":1}}`,
			"unknown field"},
		"text-schedule": {`{"schema":"atlahs.spec/v1","schedule":"bnVtX3JhbmtzIDEK"}`, "binary GOAL"},
		"wire-topo": {`{"schema":"atlahs.spec/v1","synthetic":{"pattern":"ring","ranks":2},"backend":"pkt","config":{"Topo":{}}}`,
			"cannot cross the wire"},
		"config-sans-frontend": {`{"schema":"atlahs.spec/v1","trace_path":"x","frontend_config":{}}`, "named explicitly"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := UnmarshalSpec([]byte(c.wire)); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want it to contain %q", err, c.want)
			}
		})
	}
}

// TestValidateSharedErrorText: the codec and Run must reject an invalid
// spec with byte-identical error text — Validate is the one path.
func TestValidateSharedErrorText(t *testing.T) {
	for name, spec := range map[string]Spec{
		"two-sources": {Workload: Workload{Schedule: micro.Ring(2, 64), Synthetic: &Synthetic{Pattern: "ring", Ranks: 2}}},
		"unknown-backend": {Workload: Workload{Synthetic: &Synthetic{Pattern: "ring", Ranks: 2}},
			Backend: "nosim"},
		"pkt-workers": {Workload: Workload{Synthetic: &Synthetic{Pattern: "ring", Ranks: 2}},
			Backend: "pkt",
			Workers: 4},
		"bad-pattern":   {Workload: Workload{Synthetic: &Synthetic{Pattern: "nope", Ranks: 2}}},
		"bad-placement": {Jobs: []JobSpec{{Workload: Workload{Synthetic: &Synthetic{Pattern: "ring", Ranks: 2}}}}, Placement: "diagonal"},
	} {
		t.Run(name, func(t *testing.T) {
			verr := spec.Validate()
			if verr == nil {
				t.Fatal("Validate accepted an invalid spec")
			}
			if _, rerr := Run(context.Background(), spec); rerr == nil || rerr.Error() != verr.Error() {
				t.Fatalf("Run error %q, Validate error %q — entry points disagree", rerr, verr)
			}
			if _, merr := MarshalSpec(spec); merr == nil || merr.Error() != verr.Error() {
				t.Fatalf("MarshalSpec error %q, Validate error %q — entry points disagree", merr, verr)
			}
		})
	}
}

// TestWorkerRuleIgnoresTheHost: whether a worker request is refused
// depends on the spec alone, not on GOMAXPROCS. A -1 ("as many as
// GOMAXPROCS") on a backend that cannot shard is refused with one error
// text by Validate, MarshalSpec and UnmarshalSpec at GOMAXPROCS 1 and 2,
// so a spec file decodes on every host or on none; lgs takes -1, and
// pkt takes 0 and 1, at both.
func TestWorkerRuleIgnoresTheHost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ring := Workload{Synthetic: &Synthetic{Pattern: "ring", Ranks: 2}}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, backend := range []string{"pkt", "fluid"} {
			spec := Spec{Workload: ring, Backend: backend, Workers: -1}
			verr := spec.Validate()
			if verr == nil {
				t.Fatalf("GOMAXPROCS %d: Validate accepted %s with Workers -1", procs, backend)
			}
			want := fmt.Sprintf("sim: backend %q shares fabric state across ranks and cannot run on the parallel engine; drop the worker request (got -1)", backend)
			if verr.Error() != want {
				t.Fatalf("GOMAXPROCS %d: Validate error %q, want %q", procs, verr, want)
			}
			if _, err := MarshalSpec(spec); err == nil || err.Error() != want {
				t.Fatalf("GOMAXPROCS %d: MarshalSpec error %v, want %q", procs, err, want)
			}
			wire := `{"schema":"atlahs.spec/v1","synthetic":{"pattern":"ring","ranks":2},"backend":"` + backend + `","workers":-1}`
			if _, err := UnmarshalSpec([]byte(wire)); err == nil || err.Error() != want {
				t.Fatalf("GOMAXPROCS %d: UnmarshalSpec error %v, want %q", procs, err, want)
			}
		}
		for _, ok := range []Spec{
			{Workload: ring, Backend: "lgs", Workers: -1},
			{Workload: ring, Backend: "pkt", Workers: 0},
			{Workload: ring, Backend: "pkt", Workers: 1},
		} {
			if err := ok.Validate(); err != nil {
				t.Fatalf("GOMAXPROCS %d: %s with Workers %d: %v", procs, ok.Backend, ok.Workers, err)
			}
		}
	}
}

func TestFingerprint(t *testing.T) {
	base := Spec{Workload: Workload{Synthetic: &Synthetic{Pattern: "alltoall", Ranks: 4, Bytes: 4096}},
		Backend: "lgs"}
	fp := func(t *testing.T, sp Spec) string {
		t.Helper()
		s, err := Fingerprint(sp)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := fp(t, base)
	if len(want) != 64 {
		t.Fatalf("fingerprint %q is not hex SHA-256", want)
	}

	// Execution knobs never affect results, so they must not affect the
	// address; neither do spellings of the same default.
	for name, same := range map[string]Spec{
		"workers": {Workload: Workload{Synthetic: base.Synthetic},
			Backend: "lgs",
			Workers: 8},
		"progress": {Workload: Workload{Synthetic: base.Synthetic},
			Backend:       "lgs",
			ProgressEvery: 10},
		"default-name": {Workload: Workload{Synthetic: base.Synthetic}},
		"explicit-scale": {Workload: Workload{Synthetic: base.Synthetic},
			Backend:   "lgs",
			CalcScale: 1},
	} {
		if got := fp(t, same); got != want {
			t.Fatalf("%s: fingerprint %s, want %s (result-neutral knob changed the address)", name, got, want)
		}
	}

	// Result-affecting fields must move the address.
	for name, other := range map[string]Spec{
		"workload": {Workload: Workload{Synthetic: &Synthetic{Pattern: "alltoall", Ranks: 4, Bytes: 8192}},
			Backend: "lgs"},
		"backend": {Workload: Workload{Synthetic: base.Synthetic},
			Backend: "pkt"},
		"config": {Workload: Workload{Synthetic: base.Synthetic},
			Backend: "lgs",
			Config:  LGSConfig{Params: HPCParams()}},
		"scale": {Workload: Workload{Synthetic: base.Synthetic},
			Backend:   "lgs",
			CalcScale: 2},
		"seed": {Workload: Workload{Synthetic: base.Synthetic},
			Backend: "lgs",
			Seed:    42},
	} {
		if got := fp(t, other); got == want {
			t.Fatalf("%s: fingerprint did not change", name)
		}
	}
}

// TestResolveSpecPinsWorkload: the spec ResolveSpec returns carries its
// resolved schedule, so Run neither re-reads files nor re-converts — the
// single-resolution guarantee the service's submit path relies on.
func TestResolveSpecPinsWorkload(t *testing.T) {
	s := micro.Ring(4, 1024)
	var bin bytes.Buffer
	if err := WriteGOALBinary(&bin, s); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/pin.bin"
	if err := os.WriteFile(path, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Workload: Workload{GoalPath: path}}
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	pinned, fp, err := ResolveSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if direct, err := Fingerprint(spec); err != nil || direct != fp {
		t.Fatalf("ResolveSpec fingerprint %s, Fingerprint %s (err %v)", fp, direct, err)
	}
	// Deleting the file proves Run uses the pinned resolution.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), pinned)
	if err != nil {
		t.Fatalf("pinned spec re-read the deleted file: %v", err)
	}
	if got.Runtime != want.Runtime || got.Ops != want.Ops {
		t.Fatalf("pinned run (%v, %d), want (%v, %d)", got.Runtime, got.Ops, want.Runtime, want.Ops)
	}
}

// TestFingerprintAliasesWorkloadSources: the same workload must hash the
// same whether it arrives as an in-memory schedule, serialised bytes, or
// a file path — the digest covers resolved content, not provenance.
func TestFingerprintAliasesWorkloadSources(t *testing.T) {
	s := micro.Ring(5, 2048)
	var bin bytes.Buffer
	if err := WriteGOALBinary(&bin, s); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/ring.bin"
	if err := os.WriteFile(path, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := Fingerprint(Spec{Workload: Workload{Schedule: s}})
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]Spec{
		"bytes": {Workload: Workload{GoalBytes: bin.Bytes()}},
		"path":  {Workload: Workload{GoalPath: path}},
		"trace": {Workload: Workload{Trace: bin.Bytes(), Frontend: "goal"}},
	} {
		got, err := Fingerprint(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Fatalf("%s: fingerprint %s, want %s", name, got, want)
		}
	}
}

package sim

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"atlahs/internal/simtime"
)

// TestFabricConfigsRefused runs network configurations that used to
// panic the engine, hang or silently simulate something else, through
// Run and, where JSON can carry them, through the wire: each must be an
// error naming what is wrong. A row that hangs fails at its deadline
// instead of stalling the suite.
func TestFabricConfigsRefused(t *testing.T) {
	link := DefaultLinkSpec()
	withLink := func(f func(*LinkSpec)) LinkSpec {
		l := link
		f(&l)
		return l
	}
	cases := map[string]struct {
		backend string
		config  any
		want    string // "" accepts the config
	}{
		"fluid/jitter-1e300":      {"fluid", FluidConfig{JitterFrac: 1e300}, "jitter fraction"},
		"fluid/jitter-above-1":    {"fluid", FluidConfig{JitterFrac: 1.5}, "jitter fraction"},
		"fluid/jitter-negative":   {"fluid", FluidConfig{JitterFrac: -0.1}, "jitter fraction"},
		"fluid/jitter-nan":        {"fluid", FluidConfig{JitterFrac: math.NaN()}, "jitter fraction"},
		"fluid/jitter-1":          {"fluid", FluidConfig{JitterFrac: 1}, ""},
		"fluid/overhead-negative": {"fluid", FluidConfig{Overhead: -simtime.Microsecond}, "negative overhead"},
		"fluid/ps-per-byte-negative": {"fluid", FluidConfig{Link: withLink(func(l *LinkSpec) { l.PsPerByte = -40 })},
			"serialisation"},
		"fluid/ps-per-byte-zero": {"fluid", FluidConfig{Link: withLink(func(l *LinkSpec) { l.PsPerByte = 0 })},
			"serialisation"},
		"fluid/latency-negative": {"fluid", FluidConfig{Link: withLink(func(l *LinkSpec) { l.Latency = -1 })},
			"negative link latency"},
		"pkt/ps-per-byte-negative": {"pkt", PktConfig{Link: withLink(func(l *LinkSpec) { l.PsPerByte = -40 })},
			"serialisation"},
		"pkt/latency-negative": {"pkt", PktConfig{Link: withLink(func(l *LinkSpec) { l.Latency = -1 })},
			"negative link latency"},
		"pkt/buffer-0":    {"pkt", PktConfig{Link: withLink(func(l *LinkSpec) { l.BufBytes = 0 })}, "less than one"},
		"pkt/buffer-1":    {"pkt", PktConfig{Link: withLink(func(l *LinkSpec) { l.BufBytes = 1 })}, "less than one"},
		"pkt/buffer-1000": {"pkt", PktConfig{Link: withLink(func(l *LinkSpec) { l.BufBytes = 1000 })}, "less than one"},
		"pkt/buffer-4096": {"pkt", PktConfig{Link: withLink(func(l *LinkSpec) { l.BufBytes = 4096 })}, "less than one"},
		"pkt/buffer-4159": {"pkt", PktConfig{Link: withLink(func(l *LinkSpec) { l.BufBytes = 4159 })}, "less than one"},
		"pkt/buffer-4160": {"pkt", PktConfig{Link: withLink(func(l *LinkSpec) { l.BufBytes = 4160 })}, ""},
		"pkt/buffer-4200": {"pkt", PktConfig{Link: withLink(func(l *LinkSpec) { l.BufBytes = 4200 })}, ""},
		// The radix bounds the fabric whatever the schedule: at the cap an
		// 8-rank ring builds one 4096-host ToR, above it nothing is built.
		"pkt/hosts-per-tor-4096":   {"pkt", PktConfig{HostsPerToR: 4096}, ""},
		"fluid/hosts-per-tor-4096": {"fluid", FluidConfig{HostsPerToR: 4096}, ""},
		"pkt/hosts-per-tor-4097":   {"pkt", PktConfig{HostsPerToR: 4097}, "radix limit"},
		"fluid/hosts-per-tor-4097": {"fluid", FluidConfig{HostsPerToR: 4097}, "radix limit"},
		"pkt/hosts-per-tor-2^16":   {"pkt", PktConfig{HostsPerToR: 1 << 16}, "radix limit"},
		"fluid/hosts-per-tor-2^16": {"fluid", FluidConfig{HostsPerToR: 1 << 16}, "radix limit"},
		"pkt/cores-4":              {"pkt", PktConfig{HostsPerToR: 4, Cores: 4}, ""},
		"pkt/cores-5":              {"pkt", PktConfig{HostsPerToR: 4, Cores: 5}, "exceed 4 hosts per ToR"},
		"fluid/cores-5":            {"fluid", FluidConfig{HostsPerToR: 4, Cores: 5}, "exceed 4 hosts per ToR"},
		"pkt/cores-2^16":           {"pkt", PktConfig{Cores: 1 << 16}, "exceed 4 hosts per ToR"},
	}
	ring := &Synthetic{Pattern: "ring", Ranks: 8, Bytes: 4096}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			spec := Spec{Workload: Workload{Synthetic: ring}, Backend: c.backend, Config: c.config}
			check := func(how string, err error) {
				t.Helper()
				if c.want == "" && err != nil {
					t.Errorf("%s: %v, want the run to succeed", how, err)
				}
				if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
					t.Errorf("%s: error %v, want it to contain %q", how, err, c.want)
				}
			}
			check("Run", runWithin(t, spec))
			if name == "fluid/jitter-nan" {
				return // JSON has no NaN
			}
			wire, err := MarshalSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			back, err := UnmarshalSpec(wire)
			if err != nil {
				t.Fatal(err)
			}
			check("UnmarshalSpec then Run", runWithin(t, back))
		})
	}
}

// runWithin runs spec and fails the test if it has not returned within
// ten seconds.
func runWithin(t *testing.T, spec Spec) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), spec)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("run still going after 10 s")
		return nil
	}
}

// TestSyntheticBoundsRefused: a synthetic pattern whose messages no GOAL
// op can hold, or whose rank or op count would have Run (or atlahsd's
// admission) allocate without limit, is refused by Validate and by
// UnmarshalSpec before anything is generated. Each refused row used to
// validate and then panic in the generator's MustBuild or allocate until
// the process died. The accepted rows sit on each bound and are only
// validated, never generated.
func TestSyntheticBoundsRefused(t *testing.T) {
	const (
		bytesErr = "needs Bytes in [0, 1099511627776]"
		ranksErr = "needs Ranks in [1, 1048576]"
		opsErr   = "would generate more than 67108864 ops"
	)
	for name, c := range map[string]struct {
		syn  Synthetic
		want string // "" accepts the pattern
	}{
		"ring/bytes-negative":      {Synthetic{Pattern: "ring", Ranks: 4, Bytes: -1}, bytesErr},
		"alltoall/bytes-2TiB":      {Synthetic{Pattern: "alltoall", Ranks: 4, Bytes: 2 << 40}, bytesErr},
		"ring/bytes-1TiB":          {Synthetic{Pattern: "ring", Ranks: 4, Bytes: 1 << 40}, ""},
		"ring/bytes-1TiB+1":        {Synthetic{Pattern: "ring", Ranks: 4, Bytes: 1<<40 + 1}, bytesErr},
		"incast/ranks-2^30":        {Synthetic{Pattern: "incast", Ranks: 1 << 30, Bytes: 64}, ranksErr},
		"ring/ranks-2^20":          {Synthetic{Pattern: "ring", Ranks: 1 << 20, Bytes: 64}, ""},
		"ring/ranks-2^20+1":        {Synthetic{Pattern: "ring", Ranks: 1<<20 + 1, Bytes: 64}, ranksErr},
		"alltoall/ranks-100000":    {Synthetic{Pattern: "alltoall", Ranks: 100000, Bytes: 64}, opsErr},
		"alltoall/ranks-5793":      {Synthetic{Pattern: "alltoall", Ranks: 5793, Bytes: 64}, ""},
		"alltoall/ranks-5794":      {Synthetic{Pattern: "alltoall", Ranks: 5794, Bytes: 64}, opsErr},
		"alltoall/ranks-2^20":      {Synthetic{Pattern: "alltoall", Ranks: 1 << 20, Bytes: 64}, opsErr},
		"bsp/phases-2e9":           {Synthetic{Pattern: "bsp", Ranks: 16, Bytes: 64, Phases: 2_000_000_000}, opsErr},
		"bsp/phases-135300":        {Synthetic{Pattern: "bsp", Ranks: 16, Bytes: 64, Phases: 135300}, ""},
		"bsp/phases-135301":        {Synthetic{Pattern: "bsp", Ranks: 16, Bytes: 64, Phases: 135301}, opsErr},
		"bsp/phases-max-ranks-max": {Synthetic{Pattern: "bsp", Ranks: 1 << 20, Bytes: 64, Phases: math.MaxInt}, opsErr},
		"uniform/msgs-2e9":         {Synthetic{Pattern: "uniform", Ranks: 16, Bytes: 64, Msgs: 2_000_000_000}, opsErr},
		"uniform/msgs-22369621":    {Synthetic{Pattern: "uniform", Ranks: 16, Bytes: 64, Msgs: 22369621}, ""},
		"uniform/msgs-22369622":    {Synthetic{Pattern: "uniform", Ranks: 16, Bytes: 64, Msgs: 22369622}, opsErr},
	} {
		t.Run(name, func(t *testing.T) {
			check := func(how string, err error) {
				t.Helper()
				if c.want == "" && err != nil {
					t.Errorf("%s: %v, want the spec accepted", how, err)
				}
				if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
					t.Errorf("%s: error %v, want it to contain %q", how, err, c.want)
				}
			}
			spec := Spec{Workload: Workload{Synthetic: &c.syn}}
			check("Validate", spec.Validate())
			job := Spec{Jobs: []JobSpec{{Workload: Workload{Synthetic: &c.syn}}}}
			check("Validate of a job", job.Validate())
			syn, err := json.Marshal(c.syn)
			if err != nil {
				t.Fatal(err)
			}
			_, err = UnmarshalSpec([]byte(`{"schema":"atlahs.spec/v1","synthetic":` + string(syn) + `}`))
			check("UnmarshalSpec", err)
		})
	}
}

package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"atlahs/results"
)

// metricValue pulls one sample out of a run's metrics snapshot.
func metricValue(t *testing.T, res *Result, name string) float64 {
	t.Helper()
	for _, m := range res.Metrics.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %q missing from the run snapshot", name)
	return 0
}

// TestRunMetricsSnapshot: every run carries a valid atlahs.metrics/v1
// snapshot whose engine counters agree with the Result's own accounting.
func TestRunMetricsSnapshot(t *testing.T) {
	spec := Spec{Workload: Workload{Synthetic: &Synthetic{Pattern: "alltoall", Ranks: 8, Bytes: 4096}}}
	serial := runResult(t, spec)
	if serial.Metrics == nil {
		t.Fatal("serial run carries no metrics snapshot")
	}
	if err := serial.Metrics.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, serial, "atlahs_engine_events_total"); got != float64(serial.Events) {
		t.Fatalf("events metric %v, Result.Events %d", got, serial.Events)
	}
	if metricValue(t, serial, "atlahs_engine_peak_pending") <= 0 {
		t.Fatal("serial run recorded no queue-depth high-water mark")
	}
	if metricValue(t, serial, "atlahs_sched_peak_outstanding") <= 0 {
		t.Fatal("run recorded no scheduler in-flight high-water mark")
	}
	if got := metricValue(t, serial, "atlahs_engine_windows_total"); got != 0 {
		t.Fatalf("serial run counted %v conservative windows", got)
	}

	par := runResult(t, spec.withWorkers(4))
	if got := metricValue(t, par, "atlahs_engine_windows_total"); got <= 0 {
		t.Fatal("parallel run counted no conservative windows")
	}
	if metricValue(t, par, "atlahs_engine_active_lanes_total") <= 0 {
		t.Fatal("parallel run counted no active lanes")
	}
}

// metricsPins are the SHA-256s of EncodeMetricsJSON(res.Metrics) for
// TestRecycledRunsMatchFresh's specs, serial and at 2 workers.
var metricsPins = map[string][2]string{
	"pinned case 0": {
		"a82a3ac16c59e5366104804f810c39bbc9926c86cc764c67dc9bd1bc427081fd",
		"64c755ecf0a8f7ef5c3a7acda06bc5dfc9fb4765d0dc55ccd08fd88d1ac78993"},
	"pinned case 1": {
		"a82a3ac16c59e5366104804f810c39bbc9926c86cc764c67dc9bd1bc427081fd",
		"d3c992b672a3d6db813242ef7e064f8fc81ed6137b9c1cee3f034c3f1f2a37ad"},
	"pinned case 2": {
		"18b275072ab92ee936e698a42197150e353bd87f870185aa2ddf7fac59d63cb9",
		"2b8fb218c864bb137f632ddb7d59a300b17364f2d04553ba46f94d6954e88a29"},
	"pinned case 3": {
		"aa440ec6e1da6e3afc4b2acd47834edbc9423802127edaa3737d89332738b8ad",
		"32d8314c1665b3062186d30c03cdd233f4754f7e5be8a4b3909d77de48db9371"},
	"pinned case 4": {
		"28bac813bc567ecb66a3c271d9823f6feb55cc6e2127c9332115aa4611738947",
		"92e19af36a63746145e562990ca58c90c9168266dbfe5a314e191dcc1084dd7d"},
	"pinned case 5": {
		"77298b2dd9cc69a9bc95a740168d68565294dce77aa8bd75d877433cd22b3171",
		"44a6f9f21b9711ae81136a75e8af07caed921950a1b4fa0531336fddd07a858f"},
	"pinned case 6": {
		"c90a5fad60034c04ad2ae073f3944860a26f0d1df6f2e669dbefad4aecb815f3",
		"8ddb61f298f2d9c4aa271e4d917cf715607ad729ca71e73ba37cfb4a090093b1"},
	"pinned case 7": {
		"50803e5346747874cb9c0827d9f2677bf8d8267035ec354dc2e9cb0c008e0760",
		"20fbd00e660981fdf59802387049eda0565dad280b638ae004fbc2eb56d2c917"},
	"pinned case 8": {
		"e1eaab7d0e938e1348245b27af98fb14cd31c74015cadb8b0c86714f1e11ed19",
		"d9121d164b4312ee0f85d358ee2db60388826f705e3edd755f2414f2fbbfa415"},
	"pinned case 9": {
		"bb96a4d4c7916279cc0ec1e34e59bb8568961ea7bfa597390de68fdb795bac69",
		"0baf6055f7e55474946a8035d3fc5a60c0da49c62588b17cbdd47e4a42f84b78"},
	"pinned case 10": {
		"50803e5346747874cb9c0827d9f2677bf8d8267035ec354dc2e9cb0c008e0760",
		"50803e5346747874cb9c0827d9f2677bf8d8267035ec354dc2e9cb0c008e0760"},
	"pinned case 11": {
		"77298b2dd9cc69a9bc95a740168d68565294dce77aa8bd75d877433cd22b3171",
		"77298b2dd9cc69a9bc95a740168d68565294dce77aa8bd75d877433cd22b3171"},
	"pinned case 12": {
		"85789c32f7652c5626fa5e10378ffde639023e02dc7e2d7f13e05361492087bd",
		"9cad457b3ac22b7dc398ffb00fc8720fe8c03f797162a5468deca1f685737291"},
	"pinned case 13": {
		"beb05510141c4684040e3d745f21afeca3e5cab0fff5cf2796e3ef89f93b1cec",
		"6293f64b974c5da947b5cc086149deb40446a1179ffac3b96b2b23d50d10bde1"},
	"big": {
		"7c50b36c7f4bbee1dce2d2eb08de004415cf8aeab2730eaa55c86ff6fe431813",
		"7bf2372c05a07491a771dafd5cbc8bbefc3d009b693a6518e434bc098c499142"},
	"small": {
		"d739fc957ea067e2164aa4e30179d8f08d28902b2d8a44fdcd856a5566c61e7a",
		"06482cce4cbc1d6e97463f1204d2711b06b0591cc2cdb4a126258283d0a8ff9d"},
	"clean": {
		"4dde847fb8a5825750af68e8c81eb2a901ce17230405e16312ace40b68972687",
		"6f34c8790de082e0e878584d1c91096dc1fff5ebda489e576ff73c6d756eb596"},
}

// TestRunMetricsPinned: a run's encoded metrics snapshot is the pinned
// bytes, on the serial engine and on the lane engine.
func TestRunMetricsPinned(t *testing.T) {
	specs := map[string]Spec{}
	for i, spec := range lgsPinnedCases() {
		specs[fmt.Sprintf("pinned case %d", i)] = spec
	}
	specs["big"], specs["small"], specs["clean"] = recycleSizedSpecs()
	if len(specs) != len(metricsPins) {
		t.Errorf("%d specs, %d pins", len(specs), len(metricsPins))
	}
	for name, spec := range specs {
		for i, workers := range []int{0, 2} {
			res, err := Run(context.Background(), spec.withWorkers(workers))
			if err != nil {
				t.Fatalf("%s, workers %d: %v", name, workers, err)
			}
			var buf bytes.Buffer
			if err := results.EncodeMetricsJSON(&buf, res.Metrics); err != nil {
				t.Fatalf("%s, workers %d: %v", name, workers, err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != metricsPins[name][i] {
				t.Errorf("%s, workers %d: metrics SHA-256 %s, pinned %s", name, workers, got, metricsPins[name][i])
			}
		}
	}
}

// withWorkers returns a copy of the spec with the worker budget set.
func (sp Spec) withWorkers(n int) Spec {
	sp.Workers = n
	return sp
}

// TestTimelineIndependentOfEngine: a run with a Timeline is serial
// whatever Workers asks for, and its timeline holds one instant per op
// completion and nothing else, so an lgs spec encodes to the same bytes
// at any worker count. A recorder capped below the op count keeps the
// same prefix of the run every time, so it too encodes to the same bytes
// at every worker count and on every repeat.
func TestTimelineIndependentOfEngine(t *testing.T) {
	for _, syn := range []Synthetic{
		{Pattern: "ring", Ranks: 8, Bytes: 4096},
		{Pattern: "alltoall", Ranks: 8, Bytes: 4096},
		{Pattern: "bsp", Ranks: 16, Bytes: 65536, Phases: 5, CalcNanos: 2000},
	} {
		var full, capped []byte
		for _, workers := range []int{0, 2, 4, 0, 2, 4} {
			tl := NewTimeline(0)
			res := runResult(t, Spec{Workload: Workload{Synthetic: &syn}, Workers: workers, Timeline: tl})
			if res.Parallel || res.Workers != 1 {
				t.Fatalf("%s, workers %d: a run with a Timeline ran parallel=%v on %d workers, want serial", syn.Pattern, workers, res.Parallel, res.Workers)
			}
			if int64(tl.Len()) != res.Ops || tl.Dropped() != 0 {
				t.Fatalf("%s, workers %d: timeline holds %d events (%d dropped) for %d ops", syn.Pattern, workers, tl.Len(), tl.Dropped(), res.Ops)
			}
			limit := res.Ops / 3
			ctl := NewTimeline(int(limit))
			runResult(t, Spec{Workload: Workload{Synthetic: &syn}, Workers: workers, Timeline: ctl})
			if int64(ctl.Len()) != limit || int64(ctl.Dropped()) != res.Ops-limit {
				t.Fatalf("%s, workers %d: capped timeline holds %d events (%d dropped) for %d ops under a cap of %d", syn.Pattern, workers, ctl.Len(), ctl.Dropped(), res.Ops, limit)
			}
			for _, c := range []struct {
				name string
				tl   *Timeline
				want *[]byte
			}{{"full", tl, &full}, {"capped", ctl, &capped}} {
				var buf bytes.Buffer
				if err := c.tl.Encode(&buf); err != nil {
					t.Fatal(err)
				}
				if *c.want == nil {
					*c.want = buf.Bytes()
				} else if !bytes.Equal(buf.Bytes(), *c.want) {
					t.Errorf("%s: the %s timeline at %d workers (%d B) differs from the first run's (%d B)", syn.Pattern, c.name, workers, buf.Len(), len(*c.want))
				}
			}
		}
		if !strings.Contains(string(full), `"ph":"i"`) {
			t.Fatalf("%s: trace carries no op instants", syn.Pattern)
		}
	}
}

// TestTimelineSpecCannotCrossWire mirrors the Observer rule: recorders
// are process-local hooks.
func TestTimelineSpecCannotCrossWire(t *testing.T) {
	_, err := MarshalSpec(Spec{
		Workload: Workload{Synthetic: &Synthetic{Pattern: "ring", Ranks: 2, Bytes: 64}},
		Timeline: NewTimeline(0),
	})
	if err == nil || !strings.Contains(err.Error(), "Timeline") {
		t.Fatalf("MarshalSpec accepted a Timeline spec: %v", err)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atlahs/internal/experiments"
	"atlahs/internal/goal"
	"atlahs/internal/service"
	"atlahs/internal/xrand"
	"atlahs/results"
	"atlahs/sim"
)

const (
	svcName    = "svc-mixed-http"
	svcClients = 2
	// svcCache bounds the service's run cache and its list of sweeps. It is
	// small enough that both fill within the first seconds of a run: the
	// service keeps every run a sweep names alive, and a cache that never
	// fills would make peak memory follow the run's throughput.
	svcCache = 256
	// sampleSpecs is how many pool specs have their service reply held
	// against an in-process sim.Run. Those runs are most of the set-up:
	// single-threaded simulation, which repeats far better than a warm-up
	// of as many service requests would (their wall time spreads like
	// ops_per_s).
	sampleSpecs = 512
	// accSpecs is how many pool specs err_vs_fluid_pct averages over.
	accSpecs = 16
	// zipfRanks bounds how far back a re-submission reaches into the specs
	// a client has already sent, most recent first: about one in ten reaches
	// past what the cache still holds and runs cold again.
	zipfRanks = 256
	sweepSize = 8
	// warmBase and probeBase start the pool index ranges of the warm-up
	// requests and of the in-process probes, which the timed mix never
	// reaches.
	warmBase  = 1 << 20
	probeBase = 1 << 21
)

// poolSpec is the idx-th self-contained spec of a seed's pool: a small
// synthetic pattern whose payload size makes it distinct from every other
// index, so a never-sent index is a cold run. Pattern and rank count cycle
// with the index instead of being drawn, so that every seed's pool has the
// same composition: an all-to-all on 64 ranks costs fifty times a ring,
// and a drawn mix would move the cost of a run by a few percent from seed
// to seed. The seed picks the destinations of the seeded patterns and the
// order of the requests.
func poolSpec(seed uint64, idx int) sim.Spec {
	k := idx / svcClients // both clients walk the same cycle
	sy := &sim.Synthetic{Ranks: 16 + k/5*11%49, Bytes: 1024 + 16*int64(idx)}
	switch k % 5 {
	case 0:
		sy.Pattern = "ring"
	case 1:
		sy.Pattern = "alltoall"
	case 2:
		sy.Pattern = "permutation"
	case 3:
		sy.Pattern, sy.Msgs = "uniform", 24
	case 4:
		sy.Pattern, sy.Phases = "bsp", 2
	}
	return sim.Spec{Workload: sim.Workload{Synthetic: sy}, Backend: "lgs", Seed: seed}
}

// request is one client request: a single submission or a sweep, naming
// pool indices.
type request struct {
	sweep bool
	idx   []int
}

// mix draws one client's request sequence: 70% re-submissions of specs it
// has sent before (Zipf, most recent first), 25% never-sent specs, 5%
// sweeps of four sent plus four new. Classes are dealt from shuffled blocks
// of twenty, so every run has the same shares and only their order is
// random. The sequence depends on the seed and the client number only,
// never on timing or on the other client.
type mix struct {
	rng    *xrand.RNG
	zipf   *xrand.Zipf
	block  []int // request classes left in the current block
	seen   []int
	next   int // next never-sent pool index
	stride int
}

// Request classes and how many of each a block of twenty holds.
const (
	classOld = iota
	classNew
	classSweep
)

var blockShares = [...]int{classOld: 14, classNew: 5, classSweep: 1}

// class deals the next request class.
func (m *mix) class() int {
	if len(m.block) == 0 {
		for class, n := range blockShares {
			for ; n > 0; n-- {
				m.block = append(m.block, class)
			}
		}
		for i, j := range m.rng.Perm(len(m.block)) {
			m.block[i], m.block[j] = m.block[j], m.block[i]
		}
	}
	class := m.block[len(m.block)-1]
	m.block = m.block[:len(m.block)-1]
	return class
}

func newMix(seed uint64, client, clients int) *mix {
	rng := xrand.New(seed ^ uint64(client+1)*0x9e3779b97f4a7c15)
	return &mix{rng: rng, zipf: xrand.NewZipf(rng, zipfRanks, 1.1), next: client, stride: clients}
}

// fresh returns the next never-sent index. A closed-loop client has its
// reply before it draws again, so the index counts as sent from then on.
func (m *mix) fresh() int {
	idx := m.next
	m.next += m.stride
	m.seen = append(m.seen, idx)
	return idx
}

func (m *mix) old() int { return m.seen[len(m.seen)-1-m.zipf.Next()%len(m.seen)] }

func (m *mix) draw() request {
	switch class := m.class(); {
	case len(m.seen) < sweepSize || class == classNew:
		return request{idx: []int{m.fresh()}}
	case class == classOld:
		return request{idx: []int{m.old()}}
	}
	req := request{sweep: true}
	for len(req.idx) < sweepSize/2 {
		idx := m.old()
		if !slices.Contains(req.idx, idx) {
			req.idx = append(req.idx, idx)
		}
	}
	for len(req.idx) < sweepSize {
		req.idx = append(req.idx, m.fresh())
	}
	return req
}

// svc is the set-up service workload: an in-process service behind its
// HTTP handler on a loopback socket.
type svc struct {
	seed   uint64
	dir    string
	svc    *service.Service
	srv    *http.Server
	served chan struct{}
	base   string
	client *http.Client
	// want maps a pool index to the runtime_ps every reply for it must
	// carry: preset from in-process runs for the first sampleSpecs, learnt
	// from the first reply otherwise.
	mu   sync.Mutex
	want map[int]int64

	goalBytesPerOp float64
	errPct         float64
	fluidMs        float64
	specBytes      atomic.Int64 // request body bytes sent
	requests       atomic.Int64
}

// poolRun simulates one pool spec in process and also returns the
// schedule it generates, through the same generator registry sim.Run uses.
func poolRun(seed uint64, idx int) (*sim.Schedule, *sim.Result, error) {
	spec := poolSpec(seed, idx)
	res, err := sim.Run(context.Background(), spec)
	if err != nil {
		return nil, nil, err
	}
	def, _ := sim.LookupGenerator(spec.Synthetic.Pattern)
	sched, err := def.New(sim.GenRequest{Synthetic: *spec.Synthetic, Ranks: spec.Synthetic.Ranks, Seed: seed})
	return sched, res, err
}

func setupSvc(seed uint64, sz *scale) (instance, error) {
	s := &svc{seed: seed, want: map[int]int64{}}
	var goalBytes, goalOps int64
	for idx := 0; idx < sz.sampleSpecs; idx++ {
		sched, res, err := poolRun(seed, idx)
		if err != nil {
			return nil, err
		}
		s.want[idx] = int64(res.Runtime)
		var bin bytes.Buffer
		if err := goal.WriteBinary(&bin, sched); err != nil {
			return nil, err
		}
		goalBytes += int64(bin.Len())
		goalOps += res.Ops
	}
	s.goalBytesPerOp = float64(goalBytes) / float64(goalOps)

	// Accuracy on the pinned pool (see accSeed): LGS against the fluid
	// reference, averaged over the first specs.
	for idx := 0; idx < accSpecs; idx++ {
		sched, res, err := poolRun(accSeed, idx)
		if err != nil {
			return nil, err
		}
		pct, wall, err := errVsFluid(sched, res.Runtime, 4, experiments.AIDomain())
		if err != nil {
			return nil, err
		}
		s.errPct += pct / accSpecs
		s.fluidMs += wall
	}

	var err error
	if s.dir, err = scratchDir("svc"); err != nil {
		return nil, err
	}
	s.svc, err = service.New(service.Config{
		Jobs: 2, Workers: 1, Cache: svcCache, ArtifactDir: s.dir,
		Logger: slog.New(slog.DiscardHandler),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: service.NewHandler(s.svc)}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.srv.Serve(ln) // returns when close shuts the server down
	}()
	// A reply that never comes is a failed operation, not a hung benchmark.
	s.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: svcClients}}

	// Warm-up: cold submissions and their re-submissions.
	for i := 0; i < sz.warmups; i++ {
		for rep := 0; rep < 2; rep++ {
			if smp := s.do(nil, request{idx: []int{warmBase + i}}, -1); smp.err != "" {
				s.close()
				return nil, fmt.Errorf("%s: warm-up request failed: %s", svcName, smp.err)
			}
		}
	}
	runtime.GC()
	return s, nil
}

// runReply is the part of the service's run response the client checks.
type runReply struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
	Result *struct {
		RuntimePs int64 `json:"runtime_ps"`
	} `json:"result"`
}

type sweepReply struct {
	Total  int        `json:"total"`
	Done   int        `json:"done"`
	Failed int        `json:"failed"`
	Runs   []runReply `json:"runs"`
}

// body encodes a request's wire form: one atlahs.spec/v1 document, or an
// atlahs.sweep/v1 batch of them.
func (s *svc) body(req request) (path string, body []byte, err error) {
	specs := make([]json.RawMessage, len(req.idx))
	for i, idx := range req.idx {
		if specs[i], err = sim.MarshalSpec(poolSpec(s.seed, idx)); err != nil {
			return "", nil, err
		}
	}
	if !req.sweep {
		return "/v1/runs?wait=1", specs[0], nil
	}
	body, err = json.Marshal(struct {
		Schema string            `json:"schema"`
		Specs  []json.RawMessage `json:"specs"`
	}{service.SweepSchema, specs})
	return "/v1/sweeps?wait=1", body, err
}

// do sends one request and waits for its reply, as atlahsd's callers do.
// The sample's class is hit, cold or sweep, from the reply's Cache-Status.
func (s *svc) do(tr *tracer, req request, n int) sample {
	smp := sample{traced: tr != nil}
	path, body, err := s.body(req)
	if err != nil {
		smp.err = err.Error()
		return smp
	}
	root := tr.begin("request", -1, n)
	t0 := time.Now()
	var reply []byte
	var cacheStatus string
	// The service rejects a sweep whose cached member is evicted while it
	// is being admitted and asks the client to retry; the retry is part of
	// the same operation.
	for attempt := 0; attempt < 4; attempt++ {
		id := tr.begin("http.roundtrip", root, n)
		var code int
		code, cacheStatus, reply, err = s.post(path, body)
		tr.end(id)
		if err == nil && code/100 != 2 {
			err = fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(reply))
		}
		if err == nil || !req.sweep || !strings.Contains(err.Error(), "retry the sweep") {
			break
		}
	}
	smp.ms = ms(time.Since(t0))
	id := tr.begin("client.check", root, n)
	if err == nil {
		err = s.check(req, reply)
	}
	tr.end(id)
	tr.end(root)
	s.specBytes.Add(int64(len(body)))
	s.requests.Add(1)
	switch {
	case err != nil:
		smp.err = err.Error()
	case req.sweep:
		smp.class = "sweep"
	case cacheStatus == "hit":
		smp.class = "hit"
	default:
		smp.class = "cold"
	}
	return smp
}

func (s *svc) post(path string, body []byte) (code int, cacheStatus string, reply []byte, err error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	reply, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Cache-Status"), reply, err
}

// check decodes a reply and holds every run in it against the runtime
// pinned for its pool index: the same spec must always simulate the same.
func (s *svc) check(req request, reply []byte) error {
	var runs []runReply
	if req.sweep {
		var sr sweepReply
		if err := json.Unmarshal(reply, &sr); err != nil {
			return err
		}
		if sr.Failed != 0 || sr.Done != sr.Total || len(sr.Runs) != len(req.idx) {
			return fmt.Errorf("sweep: %d done, %d failed of %d runs for %d specs", sr.Done, sr.Failed, sr.Total, len(req.idx))
		}
		runs = sr.Runs
	} else {
		runs = make([]runReply, 1)
		if err := json.Unmarshal(reply, &runs[0]); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range runs {
		if r.Status != string(service.StatusDone) || r.Result == nil {
			return fmt.Errorf("run %s is %s: %s", r.ID, r.Status, r.Error)
		}
		idx := req.idx[i]
		if want, ok := s.want[idx]; !ok {
			s.want[idx] = r.Result.RuntimePs
		} else if want != r.Result.RuntimePs {
			return fmt.Errorf("spec %d: runtime_ps %d, pinned %d", idx, r.Result.RuntimePs, want)
		}
	}
	return nil
}

// run drives the closed loop: each client sends its next request when the
// previous one has been answered, until stop.
func (s *svc) run(stop func() bool, tr *tracer) []sample {
	per := make([][]sample, svcClients)
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := newMix(s.seed, c, svcClients)
			for n := 0; !stop(); n++ {
				t := tr
				if n%2 == 1 {
					t = nil // every other request runs untraced: the overhead pair
				}
				per[c] = append(per[c], s.do(t, m.draw(), n*svcClients+c))
			}
		}()
	}
	wg.Wait()
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

func (s *svc) facts() (goalBytesPerOp, errPct float64) { return s.goalBytesPerOp, s.errPct }

// close shuts the server and the service down and removes the artifacts.
func (s *svc) close() {
	s.srv.Close()
	<-s.served
	s.client.CloseIdleConnections()
	s.svc.Close()
	os.RemoveAll(s.dir)
}

// scrape reads the service's own metrics over HTTP.
func (s *svc) scrape() (*results.MetricsSnapshot, error) {
	resp, err := s.client.Get(s.base + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return results.DecodeMetricsJSON(resp.Body)
}

// layers turns the traced run's samples, the service's own counters and
// in-process submissions into the service's per-layer metrics.
func (s *svc) layers(tr *tracer, samples []sample, sz *scale) (map[string]float64, error) {
	m := map[string]float64{}
	byClass := map[string][]float64{}
	var singles []float64
	for _, smp := range samples {
		if smp.err != "" {
			continue
		}
		byClass[smp.class] = append(byClass[smp.class], smp.ms)
		if smp.class != "sweep" {
			singles = append(singles, smp.ms)
		}
	}
	m["service.hit_p50_ms"] = median(byClass["hit"])
	m["service.cold_p50_ms"] = median(byClass["cold"])
	m["service.sweep_p50_ms"] = median(byClass["sweep"])
	m["service.submit_p99_ms"] = percentile(singles, 0.99)
	if len(singles) > 0 {
		m["service.hit_ratio"] = float64(len(byClass["hit"])) / float64(len(singles))
	}
	m["http.spec_bytes_per_req"] = float64(s.specBytes.Load()) / float64(s.requests.Load())
	m["fluid.run_ms"] = s.fluidMs

	snap, err := s.scrape()
	if err != nil {
		return m, err
	}
	_, runs, wallSum := metricValue(snap, "atlahs_service_run_wall_seconds", "")
	if runs > 0 {
		m["service.cold_minus_runwall_ms"] = m["service.cold_p50_ms"] - 1e3*wallSum/runs
	}
	finished, _, _ := metricValue(snap, "atlahs_service_runs_total", "")
	// The cache drops its oldest finished run for every one past its bound.
	m["service.evictions"] = max(finished-svcCache, 0)
	m["service.singleflight_joins"], _, _ = metricValue(snap, "atlahs_service_singleflight_joins_total", "")
	events, _, _ := metricValue(snap, "atlahs_engine_events_total", "")
	if runs > 0 {
		m["engine.events_per_s"] = events / wallSum
	}

	// The same submissions without HTTP: Service.Submit and Wait directly,
	// on indices the mix does not use.
	var coldMs, hitUs []float64
	for i := 0; i < sz.reps*20; i++ {
		spec := poolSpec(s.seed, probeBase+i)
		id := tr.begin("probe:service.Submit:cold", -1, -1)
		t0 := time.Now()
		snap, err := s.svc.Submit(spec)
		if err == nil {
			_, err = s.svc.Wait(context.Background(), snap.ID)
		}
		coldMs = append(coldMs, ms(time.Since(t0)))
		tr.end(id)
		if err != nil {
			return m, err
		}
		id = tr.begin("probe:service.Submit:hit", -1, -1)
		t0 = time.Now()
		snap, err = s.svc.Submit(spec)
		hitUs = append(hitUs, 1e3*ms(time.Since(t0)))
		tr.end(id)
		if err != nil || !snap.Cached {
			return m, fmt.Errorf("in-process re-submission was not a cache hit (err %v)", err)
		}
	}
	m["service.submit_cold_inproc_ms"] = median(coldMs)
	m["service.submit_hit_inproc_us"] = median(hitUs)
	m["http.overhead_us"] = 1e3*m["service.hit_p50_ms"] - m["service.submit_hit_inproc_us"]

	// The codecs, the content address and one run on one pool spec.
	pr := &prober{tr: tr, reps: sz.reps * 20}
	spec := poolSpec(s.seed, 0)
	var wire []byte
	m["sim.marshal_spec_us"] = 1e3 * pr.ms("sim.MarshalSpec", func() (err error) {
		wire, err = sim.MarshalSpec(spec)
		return err
	})
	m["sim.unmarshal_spec_us"] = 1e3 * pr.ms("sim.UnmarshalSpec", func() error {
		_, err := sim.UnmarshalSpec(wire)
		return err
	})
	m["sim.resolve_ms"] = pr.ms("sim.ResolveSpec", func() error {
		_, _, err := sim.ResolveSpec(spec)
		return err
	})
	m["sim.fingerprint_ms"] = m["sim.resolve_ms"]
	var res *sim.Result
	m["sim.run_ms"] = pr.ms("sim.Run", func() (err error) {
		res, err = sim.Run(context.Background(), spec)
		return err
	})
	if pr.err != nil {
		return m, pr.err
	}
	m["sim.run_overhead_ms"] = m["sim.run_ms"] - ms(res.Wall)
	m["engine.events_per_op"] = float64(res.Events) / float64(res.Ops)
	m["results.encode_json_ms"] = pr.ms("service.WriteResultJSON", func() error {
		return service.WriteResultJSON(io.Discard, res)
	})
	m["results.store_save_ms"] = storeSaveMs(pr, res)
	return m, pr.err
}

package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"

	"atlahs/internal/workload/micro"
	"atlahs/results"
	"atlahs/sim"
)

// resolveCount counts the resolutions of "countgen" specs: the generator
// runs inside sim.ResolveSpec, once per spec that admission resolves.
var resolveCount atomic.Int64

func init() {
	sim.RegisterGenerator(sim.GeneratorDef{Name: "countgen", New: func(req sim.GenRequest) (*sim.Schedule, error) {
		resolveCount.Add(1)
		return micro.Ring(req.Ranks, req.Synthetic.Bytes), nil
	}})
}

// serve sends one request to h without a socket.
func serve(h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// postBody is a POST /v1/runs?wait=1 of body, decoded.
func postBody(t *testing.T, h http.Handler, body []byte) (*httptest.ResponseRecorder, runResponse) {
	t.Helper()
	rec := serve(h, httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body)))
	var rr runResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatalf("response %d %q: %v", rec.Code, rec.Body.String(), err)
	}
	return rec, rr
}

// TestCanonicalBytesRejoinTheirRun: a re-POST of a spec's canonical
// encoding is answered from the cache with the run the first POST
// started, and the run holds the one key its bytes hash to.
func TestCanonicalBytesRejoinTheirRun(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	h := NewHandler(svc)
	body := wireSpec(t, 9500)
	rec, first := postBody(t, h, body)
	if rec.Code != http.StatusOK || rec.Header().Get("Cache-Status") != "miss" || first.Status != StatusDone {
		t.Fatalf("first POST: %d %q %+v", rec.Code, rec.Header().Get("Cache-Status"), first)
	}
	for range 2 {
		rec, again := postBody(t, h, body)
		if rec.Code != http.StatusOK || rec.Header().Get("Cache-Status") != "hit" || again.ID != first.ID || !again.Cached {
			t.Fatalf("re-POST: %d %q %+v, want a hit on %s", rec.Code, rec.Header().Get("Cache-Status"), again, first.ID)
		}
	}
	if got := svc.metrics.cacheLookaside.Value(); got != 2 {
		t.Fatalf("%d look-aside answers, want 2", got)
	}
	svc.mu.Lock()
	keys := append([]string(nil), svc.runs[first.ID].lookKeys...)
	svc.mu.Unlock()
	want := keyOf(body)
	if len(keys) != 1 || keys[0] != string(want[:]) {
		t.Fatalf("run holds keys %q, want the canonical bytes' key %s", keys, want[:])
	}
}

// TestOtherFormsTakeTheFullPath: a spec's compact form, its keys in
// another order and its "workers": 1 form are not its canonical bytes, so
// none hashes to the key filed for it. Each is decoded, keyed from the
// decoded spec and joins the run the canonical bytes started; no key of
// theirs is filed. Trailing data after the canonical bytes is a 400.
func TestOtherFormsTakeTheFullPath(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	h := NewHandler(svc)
	spec := sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "bsp", Ranks: 4, Bytes: 9600, Phases: 2}}, Backend: "lgs"}
	canonical, err := sim.MarshalSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, first := postBody(t, h, canonical)
	if first.Status != StatusDone {
		t.Fatalf("first POST: %+v", first)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, canonical); err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(canonical, &fields); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.Marshal(fields) // keys sorted: backend, schema, synthetic
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 1
	workers, err := sim.MarshalSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	forms := map[string][]byte{
		"compact":   compact.Bytes(),
		"reordered": reordered,
		"workers":   workers,
		"newline":   append(append([]byte(nil), canonical...), '\n'),
	}
	for name, body := range forms {
		if bytes.Equal(body, canonical) {
			t.Fatalf("%s: the form is the canonical bytes", name)
		}
		before := svc.metrics.cacheLookaside.Value()
		rec, rr := postBody(t, h, body)
		if rec.Code != http.StatusOK || rec.Header().Get("Cache-Status") != "hit" || rr.ID != first.ID {
			t.Fatalf("%s: %d %q %+v, want a hit on %s", name, rec.Code, rec.Header().Get("Cache-Status"), rr, first.ID)
		}
		if got := svc.metrics.cacheLookaside.Value() - before; got != 1 {
			t.Fatalf("%s: %d look-aside answers, want 1", name, got)
		}
	}
	svc.mu.Lock()
	keys, filed := len(svc.runs[first.ID].lookKeys), len(svc.lookaside)
	svc.mu.Unlock()
	if keys != 1 || filed != 1 {
		t.Fatalf("the run holds %d keys and the index %d, want the canonical key alone", keys, filed)
	}
	rec, rr := postBody(t, h, append(append([]byte(nil), canonical...), "garbage"...))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rr.Error, "trailing data") {
		t.Fatalf("canonical bytes with trailing data: %d %q, want 400", rec.Code, rr.Error)
	}
}

// TestByteProbeAfterClose: once the service is closed, a re-submission
// that its bytes would answer is refused 503 with Retry-After, as every
// submission is.
func TestByteProbeAfterClose(t *testing.T) {
	svc, err := New(Config{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(svc)
	body := wireSpec(t, 9700)
	if _, rr := postBody(t, h, body); rr.Status != StatusDone {
		svc.Close()
		t.Fatalf("first POST: %+v", rr)
	}
	svc.Close()
	rec, rr := postBody(t, h, body)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" || !strings.Contains(rr.Error, "closed") {
		t.Fatalf("re-POST after Close: %d, Retry-After %q, %+v", rec.Code, rec.Header().Get("Retry-After"), rr)
	}
}

// TestFailedRunBytesRetry: a failure is not a result. The bytes of a spec
// whose run failed hash to the key filed for it, but the probe does not
// join a failed run: the re-submission goes through the full path, which
// retries it as a new run.
func TestFailedRunBytesRetry(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	h := NewHandler(svc)
	body, err := sim.MarshalSpec(sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4}},
		Backend: "pkt", Config: sim.PktConfig{HostsPerToR: 4, Oversub: 8}})
	if err != nil {
		t.Fatal(err)
	}
	_, first := postBody(t, h, body)
	if first.Status != StatusFailed {
		t.Fatalf("first POST: %+v, want a failed run", first)
	}
	rec, again := postBody(t, h, body)
	if rec.Header().Get("Cache-Status") != "miss" || again.Cached || again.Status != StatusFailed || again.ID != first.ID {
		t.Fatalf("re-POST: %q %+v, want a retried run %s", rec.Header().Get("Cache-Status"), again, first.ID)
	}
	if got := svc.metrics.runsFailed.Value(); got != 2 {
		t.Fatalf("%d failed runs, want 2: the re-submission was not run again", got)
	}
}

// TestSweepRefusesUndecodableMemberBeforeResolving: every member of a
// sweep that its bytes do not answer is decoded before any member
// resolves, so a sweep with a member that does not decode costs no
// resolution.
func TestSweepRefusesUndecodableMemberBeforeResolving(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	h := NewHandler(svc)
	good, err := sim.MarshalSpec(sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "countgen", Ranks: 4, Bytes: 9800}}, Backend: "lgs"})
	if err != nil {
		t.Fatal(err)
	}
	before := resolveCount.Load()
	body := []byte(`{"schema":"atlahs.sweep/v1","specs":[` + string(good) + `,{"schema":"atlahs.spec/v1","bogus":1}]}`)
	rec := serve(h, httptest.NewRequest(http.MethodPost, "/v1/sweeps?wait=1", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "sweep spec 1") {
		t.Fatalf("sweep with an undecodable member: %d %s", rec.Code, rec.Body.String())
	}
	if got := resolveCount.Load() - before; got != 0 {
		t.Fatalf("%d members resolved before the sweep was refused", got)
	}
	// The same member alone resolves, once.
	body = []byte(`{"schema":"atlahs.sweep/v1","specs":[` + string(good) + `]}`)
	if rec := serve(h, httptest.NewRequest(http.MethodPost, "/v1/sweeps?wait=1", bytes.NewReader(body))); rec.Code != http.StatusOK {
		t.Fatalf("sweep of the good member: %d %s", rec.Code, rec.Body.String())
	}
	if got := resolveCount.Load() - before; got != 1 {
		t.Fatalf("%d resolutions of the good member, want 1", got)
	}
}

// TestLookasideKeyIsTheCanonicalHash: the look-aside key, hashed as
// sim.EncodeSpec writes the spec, is the hex SHA-256 of MarshalSpec's
// bytes for the spec with its execution knobs normalised away. The keys
// are persisted in sidecars, so they must not move: the specs without
// knobs are sim's wire fixtures, whose encodings sim pins.
func TestLookasideKeyIsTheCanonicalHash(t *testing.T) {
	var sched bytes.Buffer
	if err := sim.WriteGOALBinary(&sched, micro.Ring(3, 512)); err != nil {
		t.Fatal(err)
	}
	m, err := sim.MineModel(micro.BulkSynchronous(4, 2, 1024, 500), "codec-test")
	if err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if err := results.EncodeModelJSON(&model, m); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		spec sim.Spec
		pin  string // sim's pin of MarshalSpec(spec), when spec has no knobs set
	}{
		{"lgs", sim.Spec{Workload: sim.Workload{Synthetic: &sim.Synthetic{Pattern: "ring", Ranks: 4, Bytes: 1024}},
			Backend: "lgs", Config: sim.LGSConfig{Params: sim.HPCParams()}, Workers: 4, ProgressEvery: 100}, ""},
		{"pkt", sim.Spec{Workload: sim.Workload{GoalBytes: sched.Bytes()},
			Backend: "pkt", Config: sim.PktConfig{HostsPerToR: 8, Oversub: 2, CC: "dctcp"}, Seed: 7},
			"74f81c2262735f29acb4c9148a14db356e629c1b06e1f4368130b06b14e36fce"},
		{"fluid", sim.Spec{Workload: sim.Workload{Schedule: micro.AllToAll(3, 256)},
			Backend: "fluid", Config: sim.FluidConfig{JitterFrac: 0.1, Overhead: 1500}, CalcScale: 1.5},
			"c13740a26e351a1c0fb6c0733bce256e92cec29b4617d2f151eb8f5559e52d57"},
		{"goal-frontend", sim.Spec{Workload: sim.Workload{Trace: []byte("num_ranks 1\nrank 0 {\nl1: calc 5\n}\n")}},
			"a36640c136acbf58e439d33cbe002fedbe4d0bb7bc8bcd3743c619ab70f8389f"},
		{"model", sim.Spec{Workload: sim.Workload{Model: &sim.ModelGen{Ranks: 12, Seed: 5, Doc: model.Bytes()}}, Backend: "lgs"},
			"598ae28fd44279ef071fce774186090b48587b5883e8c2b8666d130ef2c542c9"},
	}
	for _, c := range cases {
		norm := c.spec
		norm.Workers, norm.ProgressEvery = 0, 0
		b, err := sim.MarshalSpec(norm)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(b)
		want := hex.EncodeToString(sum[:])
		if c.pin != "" && want != c.pin {
			t.Fatalf("%s: MarshalSpec's SHA-256 %s, sim pins %s", c.name, want, c.pin)
		}
		key := lookasideKey(c.spec)
		if string(key[:]) != want {
			t.Errorf("%s: look-aside key %s, want %s", c.name, key[:], want)
		}
		if key != keyOf(b) {
			t.Errorf("%s: the canonical bytes hash to %s, not the look-aside key", c.name, keyOf(b))
		}
	}
	if key := lookasideKey(sim.Spec{Workload: sim.Workload{TracePath: "run.nsys", Frontend: "nsys"}}); key.ok() {
		t.Errorf("a file-backed spec has the look-aside key %s", key[:])
	}
}

// unreadBody fails its test when it is read.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("the body was read")
	return 0, io.EOF
}

func (unreadBody) Close() error { return nil }

// TestReadBodyByLength: a body is read at its declared length. One
// declared over maxSpecBytes is refused 413 unread, one shorter than its
// length is a 400, and a chunked body (length unknown) is read to its end.
func TestReadBodyByLength(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	h := NewHandler(svc)
	for _, path := range []string{"/v1/runs", "/v1/sweeps"} {
		req := httptest.NewRequest(http.MethodPost, path, nil)
		req.Body, req.ContentLength = unreadBody{t}, maxSpecBytes+1
		if rec := serve(h, req); rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s, declared over the bound: %d %s, want 413", path, rec.Code, rec.Body.String())
		}
	}
	body := wireSpec(t, 9900)
	req := httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body))
	req.ContentLength = int64(len(body)) + 10
	if rec := serve(h, req); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "reading request body") {
		t.Fatalf("body shorter than its length: %d %s, want 400", rec.Code, rec.Body.String())
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", io.MultiReader(bytes.NewReader(body)))
	if req.ContentLength != -1 {
		t.Fatalf("a reader of unknown length gave the request length %d", req.ContentLength)
	}
	if rec := serve(h, req); rec.Code != http.StatusOK || rec.Header().Get("Cache-Status") != "miss" {
		t.Fatalf("chunked body: %d %s", rec.Code, rec.Body.String())
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body))
	if rec := serve(h, req); rec.Code != http.StatusOK || rec.Header().Get("Cache-Status") != "hit" {
		t.Fatalf("the same body at its length: %d %s", rec.Code, rec.Body.String())
	}
}

// TestDeclaredLengthIsNotTrusted: a request that declares the largest
// body allowed and sends a few bytes of it is a 400, and reading it
// allocates about bodyPresize, not the declared length: a client that
// sends headers and stalls holds no memory it did not send.
func TestDeclaredLengthIsNotTrusted(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	h := NewHandler(svc)
	for _, path := range []string{"/v1/runs", "/v1/sweeps"} {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"schema":`))
		req.ContentLength = maxSpecBytes
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := serve(h, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s, short of its declared length: %d %s, want 400", path, rec.Code, rec.Body.String())
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: reading 10 bytes declared as %d allocated %d bytes", path, maxSpecBytes, got)
		}
	}
}

// TestReadLength: readLength returns exactly the declared bytes, read in
// pieces, across the pre-sized slice's edge, and refuses a body that ends
// short of its length.
func TestReadLength(t *testing.T) {
	for _, n := range []int{0, 1, bodyPresize - 1, bodyPresize, bodyPresize + 1, 3*bodyPresize + 5} {
		want := bytes.Repeat([]byte("0123456789abcdef"), n/16+1)[:n]
		got, err := readLength(iotest.HalfReader(bytes.NewReader(want)), int64(n))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d bytes: read %d, %v", n, len(got), err)
		}
		if n > 0 {
			if _, err := readLength(bytes.NewReader(want[:n-1]), int64(n)); err != io.ErrUnexpectedEOF {
				t.Fatalf("%d bytes declared, %d sent: %v, want io.ErrUnexpectedEOF", n, n-1, err)
			}
		}
	}
}

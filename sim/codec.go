package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"

	"atlahs/internal/goal"
	"atlahs/internal/trace/frontend"
	"atlahs/results"
)

// SpecSchema identifies the wire layout MarshalSpec writes and
// UnmarshalSpec reads. Like atlahs.results/v1 it is append-only: released
// fields keep their names and types; new optional fields may be added.
const SpecSchema = "atlahs.spec/v1"

// wireSpec is the wire form of a Spec. Workload payloads travel inline
// (byte fields are standard-base64 JSON strings; "schedule" carries the
// canonical binary GOAL encoding), and the untyped Config/FrontendConfig
// fields travel as raw JSON objects whose concrete type is resolved by
// backend/frontend name through the two registries at decode time.
type wireSpec struct {
	Schema string `json:"schema"`
	// The top-level workload: encoding/json promotes the embedded fields,
	// so they sit between "schema" and "jobs" on the wire.
	wireJob
	Jobs          []wireJob       `json:"jobs,omitempty"`
	Placement     string          `json:"placement,omitempty"`
	Backend       string          `json:"backend,omitempty"`
	Config        json.RawMessage `json:"config,omitempty"`
	Workers       int             `json:"workers,omitempty"`
	CalcScale     float64         `json:"calc_scale,omitempty"`
	Seed          uint64          `json:"seed,omitempty"`
	ProgressEvery int64           `json:"progress_every,omitempty"`
}

// wireJob mirrors one Workload declaration: the top level of a spec and
// each of its jobs. Synthetic and ModelGen are their own wire shapes (their
// json tags are the wire keys); the model document travels inline as a
// standard-base64 JSON string.
type wireJob struct {
	GoalPath       string          `json:"goal_path,omitempty"`
	GoalBytes      []byte          `json:"goal_bytes,omitempty"`
	Schedule       []byte          `json:"schedule,omitempty"`
	Synthetic      *Synthetic      `json:"synthetic,omitempty"`
	TracePath      string          `json:"trace_path,omitempty"`
	Trace          []byte          `json:"trace,omitempty"`
	Frontend       string          `json:"frontend,omitempty"`
	FrontendConfig json.RawMessage `json:"frontend_config,omitempty"`
	Model          *ModelGen       `json:"model,omitempty"`
	ModelPath      string          `json:"model_path,omitempty"`
}

// MarshalSpec encodes a validated Spec as one indented atlahs.spec/v1 JSON
// object followed by a newline — the submission format of the simulation
// service (atlahsd) and of `atlahs -spec`. The encoding is canonical:
// marshalling the same spec always yields identical bytes.
//
// Everything in a Spec crosses the wire except the two process-local
// hooks: a non-nil Observer is an error (observers attach on the serving
// side), and configs carrying process-local pointers (an explicit
// *Topology fabric, an attached *Sample sink) are rejected — declare the
// fabric through the config's scalar fields instead. Config and
// FrontendConfig payloads are resolved by name through the backend and
// frontend registries, so a FrontendConfig needs Spec.Frontend named
// explicitly (content sniffing cannot resolve a config type), and a
// backend or frontend whose Definition declares no NewConfig factory
// cannot carry a config payload. In-memory Schedules travel as the
// canonical binary GOAL encoding.
func MarshalSpec(sp Spec) ([]byte, error) {
	if sp.Observer != nil {
		return nil, fmt.Errorf("sim: a spec with a streaming Observer cannot cross the wire; attach observers on the serving side")
	}
	if sp.Timeline != nil {
		return nil, fmt.Errorf("sim: a spec with a Timeline recorder cannot cross the wire; attach recorders on the serving side")
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	wj, err := encodeWorkload(&sp.Workload)
	if err != nil {
		return nil, err
	}
	ws := wireSpec{
		Schema:        SpecSchema,
		wireJob:       *wj,
		Placement:     sp.Placement,
		Backend:       sp.Backend,
		Workers:       sp.Workers,
		CalcScale:     sp.CalcScale,
		Seed:          sp.Seed,
		ProgressEvery: sp.ProgressEvery,
	}
	for i := range sp.Jobs {
		j, err := encodeWorkload(&sp.Jobs[i].Workload)
		if err != nil {
			return nil, fmt.Errorf("sim: job %d: %w", i, err)
		}
		ws.Jobs = append(ws.Jobs, *j)
	}
	name := sp.BackendName()
	def, _ := Lookup(name)
	if ws.Config, err = encodePayload("backend", name, def.NewConfig, sp.Config); err != nil {
		return nil, err
	}
	return results.MarshalDoc(ws)
}

// encodeWorkload renders one workload declaration (the top-level fields
// or one composed job's) into its wire form.
func encodeWorkload(j *Workload) (*wireJob, error) {
	w := &wireJob{
		GoalPath:  j.GoalPath,
		GoalBytes: j.GoalBytes,
		Synthetic: j.Synthetic,
		TracePath: j.TracePath,
		Trace:     j.Trace,
		Frontend:  j.Frontend,
		Model:     j.Model,
		ModelPath: j.ModelPath,
	}
	if j.Schedule != nil {
		var buf bytes.Buffer
		if err := goal.WriteBinary(&buf, j.Schedule); err != nil {
			return nil, fmt.Errorf("sim: encoding in-memory schedule: %w", err)
		}
		w.Schedule = buf.Bytes()
	}
	if j.FrontendConfig != nil {
		if j.Frontend == "" {
			return nil, fmt.Errorf("sim: a wire spec needs Frontend named explicitly to carry a FrontendConfig; content sniffing cannot resolve the config type")
		}
		def, _ := frontend.Lookup(j.Frontend)
		raw, err := encodePayload("frontend", j.Frontend, def.NewConfig, j.FrontendConfig)
		if err != nil {
			return nil, err
		}
		w.FrontendConfig = raw
	}
	return w, nil
}

// UnmarshalSpec decodes one atlahs.spec/v1 document into a validated Spec
// through results.DecodeDoc, the reader every versioned document shares:
// an unknown schema version, a field this version does not declare (at
// the top level, in a job or in a config payload), anything after the
// object but white space, and any spec Spec.Validate rejects are errors,
// so every spec this returns is runnable as far as its declaration goes.
// The "schedule" payload must be binary GOAL (it is parsed eagerly into
// Spec.Schedule); GoalBytes/Trace payloads stay raw and are parsed at run
// time like any other Spec.
func UnmarshalSpec(b []byte) (Spec, error) {
	var ws wireSpec
	if err := results.DecodeDoc(bytes.NewReader(b), "spec", SpecSchema, &ws); err != nil {
		return Spec{}, fmt.Errorf("sim: %w", err)
	}
	single, err := decodeWorkload(&ws.wireJob)
	if err != nil {
		return Spec{}, err
	}
	sp := Spec{
		Workload:      *single,
		Placement:     ws.Placement,
		Backend:       ws.Backend,
		Workers:       ws.Workers,
		CalcScale:     ws.CalcScale,
		Seed:          ws.Seed,
		ProgressEvery: ws.ProgressEvery,
	}
	for i := range ws.Jobs {
		j, err := decodeWorkload(&ws.Jobs[i])
		if err != nil {
			return Spec{}, fmt.Errorf("sim: job %d: %w", i, err)
		}
		sp.Jobs = append(sp.Jobs, JobSpec{Workload: *j})
	}
	name := sp.BackendName()
	def, ok := Lookup(name)
	if !ok {
		return Spec{}, fmt.Errorf("sim: unknown backend %q (registered: %s)", name, strings.Join(Backends(), ", "))
	}
	if sp.Config, err = decodePayload("backend", name, def.NewConfig, ws.Config); err != nil {
		return Spec{}, err
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// decodeWorkload resolves one wire workload declaration back into a
// Workload.
func decodeWorkload(w *wireJob) (*Workload, error) {
	j := &Workload{
		GoalPath:  w.GoalPath,
		GoalBytes: nilIfEmpty(w.GoalBytes),
		Synthetic: w.Synthetic,
		TracePath: w.TracePath,
		Trace:     nilIfEmpty(w.Trace),
		Frontend:  w.Frontend,
		Model:     w.Model,
		ModelPath: w.ModelPath,
	}
	if j.Model != nil {
		j.Model.Doc = nilIfEmpty(j.Model.Doc)
	}
	if len(w.Schedule) > 0 {
		if !goal.IsBinary(w.Schedule) {
			return nil, fmt.Errorf("sim: wire schedule payload must be binary GOAL; ship textual GOAL via goal_bytes")
		}
		s, err := goal.ParseBinary(w.Schedule)
		if err != nil {
			return nil, fmt.Errorf("sim: decoding wire schedule: %w", err)
		}
		j.Schedule = s
	}
	if payloadPresent(w.FrontendConfig) {
		if w.Frontend == "" {
			return nil, fmt.Errorf("sim: a wire spec needs Frontend named explicitly to carry a FrontendConfig; content sniffing cannot resolve the config type")
		}
		def, err := ResolveFrontend(w.Frontend, nil, "")
		if err != nil {
			return nil, err
		}
		cfg, err := decodePayload("frontend", w.Frontend, def.NewConfig, w.FrontendConfig)
		if err != nil {
			return nil, err
		}
		j.FrontendConfig = cfg
	}
	return j, nil
}

// encodePayload renders one untyped config value as its wire JSON, after
// checking it against the registered config type and its wire-ability.
func encodePayload(kind, name string, proto func() any, cfg any) (json.RawMessage, error) {
	if cfg == nil {
		return nil, nil
	}
	if proto == nil {
		return nil, fmt.Errorf("sim: %s %q declares no wire config type; a %T config cannot cross the wire", kind, name, cfg)
	}
	want := reflect.TypeOf(proto()).Elem()
	rv := reflect.ValueOf(cfg)
	switch {
	case rv.Type() == want:
	case rv.Kind() == reflect.Pointer && rv.Type().Elem() == want:
		if rv.IsNil() {
			return nil, nil
		}
		rv = rv.Elem()
	default:
		return nil, fmt.Errorf("sim: %s %q wants a %s config, got %T", kind, name, want, cfg)
	}
	val := rv.Interface()
	if err := checkWireable(kind, name, val); err != nil {
		return nil, err
	}
	b, err := json.Marshal(val)
	if err != nil {
		return nil, fmt.Errorf("sim: encoding %s %q config: %w", kind, name, err)
	}
	return b, nil
}

// decodePayload parses one wire config payload into the registered config
// type, rejecting unknown fields and process-local values.
func decodePayload(kind, name string, proto func() any, raw json.RawMessage) (any, error) {
	if !payloadPresent(raw) {
		return nil, nil
	}
	if proto == nil {
		return nil, fmt.Errorf("sim: %s %q declares no wire config type; drop the config payload", kind, name)
	}
	p := proto()
	if err := results.DecodeStrict(bytes.NewReader(raw), p); err != nil {
		return nil, fmt.Errorf("sim: decoding %s %q config: %w", kind, name, err)
	}
	cfg := reflect.ValueOf(p).Elem().Interface()
	if err := checkWireable(kind, name, cfg); err != nil {
		return nil, err
	}
	return cfg, nil
}

// checkWireable rejects config values that only make sense inside one
// process: pointer fields like an explicit fabric graph or a metric sink
// would decode into broken shells on the other end, so they fail loudly
// in both codec directions instead.
func checkWireable(kind, name string, cfg any) error {
	switch c := cfg.(type) {
	case PktConfig:
		if c.Topo != nil {
			return fmt.Errorf("sim: %s %q config: an explicit *Topology is process-local and cannot cross the wire; declare the fabric via HostsPerToR/Oversub/Cores/Link", kind, name)
		}
		if c.MCT != nil {
			return fmt.Errorf("sim: %s %q config: an attached *Sample sink is process-local and cannot cross the wire", kind, name)
		}
	case FluidConfig:
		if c.Topo != nil {
			return fmt.Errorf("sim: %s %q config: an explicit *Topology is process-local and cannot cross the wire; declare the fabric via HostsPerToR/Oversub/Cores/Link", kind, name)
		}
	}
	return nil
}

// payloadPresent reports whether a raw config payload carries a value
// (absent fields and JSON null both mean "defaults").
func payloadPresent(raw json.RawMessage) bool {
	return len(raw) > 0 && !bytes.Equal(raw, []byte("null"))
}

// nilIfEmpty canonicalises empty byte payloads to nil so decoded specs
// re-encode identically (omitempty drops both).
func nilIfEmpty(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

// canonSpec is the result-affecting projection of a Spec that Fingerprint
// hashes: the backend, its config, the calc scale and the seed. Execution
// knobs that provably never change a Result — Workers, ProgressEvery,
// Observer — are excluded, and the workload is represented by its resolved
// digest instead of by how it was sourced.
type canonSpec struct {
	Schema    string          `json:"schema"`
	Backend   string          `json:"backend"`
	Config    json.RawMessage `json:"config,omitempty"`
	CalcScale float64         `json:"calc_scale"`
	Seed      uint64          `json:"seed"`
}

// SelfContained reports whether the spec's workloads are fully inline —
// no GoalPath, TracePath or ModelPath anywhere, including composed jobs —
// so its
// wire encoding alone determines the simulation. For self-contained
// specs, equal canonical encodings imply equal Fingerprints, which lets
// a cache answer re-submissions without resolving the workload at all;
// file-backed specs lack that property (the file's contents can change
// under the same path) and must be re-digested every time.
func (sp *Spec) SelfContained() bool {
	if !sp.Workload.selfContained() {
		return false
	}
	for i := range sp.Jobs {
		if !sp.Jobs[i].Workload.selfContained() {
			return false
		}
	}
	return true
}

// selfContained reports whether the workload declaration references no
// files.
func (w *Workload) selfContained() bool {
	return w.GoalPath == "" && w.TracePath == "" && w.ModelPath == ""
}

// Fingerprint returns a Spec's content address: the hex SHA-256 of its
// canonical result-affecting encoding plus the resolved workload digest.
// Two specs with equal fingerprints produce bit-identical Results (and so
// bit-identical exported artifacts) — the determinism guarantee of Run
// extended to an address — which is what makes the simulation service's
// content-addressed run cache sound.
//
// The workload digest is computed over the fully resolved schedule (files
// read, traces converted, jobs composed, placement applied), so a path
// whose contents changed fingerprints differently, while the same
// workload submitted as a path, as bytes, or as an in-memory schedule
// fingerprints identically. Workers, ProgressEvery and Observer do not
// participate: Results never depend on them.
func Fingerprint(sp Spec) (string, error) {
	_, fp, err := ResolveSpec(sp)
	return fp, err
}

// ResolveSpec validates the spec, resolves its workload exactly once
// (files read, traces converted, jobs composed), and returns an
// equivalent spec pinned to that resolution alongside its Fingerprint.
// Run on the pinned spec skips workload resolution, so callers that need
// the content address and then the simulation — the service's submit
// path — pay for conversion once instead of twice. The pin captures the
// sources as they were at resolution time; it is the caller's choice to
// trade file re-reads for that snapshot.
func ResolveSpec(sp Spec) (Spec, string, error) {
	if err := sp.Validate(); err != nil {
		return Spec{}, "", err
	}
	rw, err := sp.resolve()
	if err != nil {
		return Spec{}, "", err
	}
	sch, jobNodes := rw.sched, rw.jobNodes
	name := sp.BackendName()
	def, _ := Lookup(name)
	cfgRaw, err := encodePayload("backend", name, def.NewConfig, sp.Config)
	if err != nil {
		return Spec{}, "", err
	}
	scale := sp.CalcScale
	if scale == 0 {
		scale = 1
	}
	head, err := json.Marshal(canonSpec{
		Schema:    SpecSchema,
		Backend:   name,
		Config:    cfgRaw,
		CalcScale: scale,
		Seed:      sp.Seed,
	})
	if err != nil {
		return Spec{}, "", fmt.Errorf("sim: encoding canonical spec: %w", err)
	}
	h := sha256.New()
	h.Write(head)
	h.Write([]byte{'\n'})
	if err := goal.WriteBinary(h, sch); err != nil {
		return Spec{}, "", fmt.Errorf("sim: digesting workload: %w", err)
	}
	// The job layout shapes Result.JobNodes, so two compositions that
	// merge into the same schedule but land jobs on different nodes must
	// not collide.
	var jb []byte
	jb = binary.AppendVarint(jb, int64(len(jobNodes)))
	for _, nodes := range jobNodes {
		jb = binary.AppendVarint(jb, int64(len(nodes)))
		for _, n := range nodes {
			jb = binary.AppendVarint(jb, int64(n))
		}
	}
	h.Write(jb)
	sp.resolved = &rw
	return sp, hex.EncodeToString(h.Sum(nil)), nil
}

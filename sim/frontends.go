package sim

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"

	"atlahs/internal/collective"
	"atlahs/internal/goal"
	"atlahs/internal/storage/directdrive"
	"atlahs/internal/trace/chakra"
	"atlahs/internal/trace/frontend"
	"atlahs/internal/trace/ncclgoal"
	"atlahs/internal/trace/schedgen"
)

// Frontend describes one registered workload frontend: a trace format
// (name, content sniffer, extension fallback) and its streaming
// trace-to-GOAL conversion. The built-in frontends self-register at init:
//
//	goal    GOAL schedules themselves, textual or binary (pass-through)
//	nsys    nsys-like GPU reports via the 4-stage NCCL pipeline (§3.1.2)
//	mpi     liballprof-style MPI traces via Schedgen (§3.1.1)
//	spc     SPC block-I/O traces via the Direct Drive model (§3.1.3)
//	chakra  Chakra-like execution traces (the AstraSim input format)
//
// Third-party ingestion registers the same way; a frontend's Convert may
// name the contract through this package's aliases: func(r io.Reader,
// cfg any) (*sim.Schedule, error).
type Frontend = frontend.Definition

// Per-frontend configuration types, passed as Spec.FrontendConfig (or
// JobSpec.FrontendConfig). nil selects each frontend's defaults; the
// "goal" frontend takes no config.
type (
	// NsysConfig tunes the "nsys" frontend: the 4-stage NCCL GOAL
	// pipeline (GPUs per node, NCCL channels/protocol, intra-node cost).
	NsysConfig = ncclgoal.Config
	// MPIConfig tunes the "mpi" frontend: Schedgen's collective
	// substitution (per-kind algorithms), compute-gap inference and
	// reduction cost.
	MPIConfig = schedgen.Options
	// SPCConfig tunes the "spc" frontend: the Direct Drive cluster shape
	// (hosts, CCS, BSS, replicas) and its service costs.
	SPCConfig = directdrive.Config
	// ChakraConfig tunes the "chakra" frontend: the world group name,
	// subgroup memberships and reduction cost.
	ChakraConfig = chakra.ConvertConfig
)

// Collective algorithm aliases, so MPIConfig.Algos is expressible without
// importing internal packages.
type (
	// CollectiveKind identifies a collective operation.
	CollectiveKind = collective.Kind
	// CollectiveAlgo selects a decomposition algorithm for a collective.
	CollectiveAlgo = collective.Algo
)

// Collective kinds (for MPIConfig.Algos keys).
const (
	CollAllreduce     = collective.Allreduce
	CollBcast         = collective.Bcast
	CollAllgather     = collective.Allgather
	CollReduceScatter = collective.ReduceScatter
	CollAlltoall      = collective.Alltoall
	CollBarrier       = collective.Barrier
	CollReduce        = collective.Reduce
	CollGather        = collective.Gather
	CollScatter       = collective.Scatter
)

// Collective algorithms (for MPIConfig.Algos values).
const (
	AlgoAuto        = collective.Auto
	AlgoRing        = collective.Ring
	AlgoRecDoubling = collective.RecDoubling
	AlgoBinomial    = collective.Binomial
)

// RegisterFrontend adds a workload frontend to the registry. The built-in
// frontends self-register at init; third parties register theirs the same
// way. Registering an empty name, a nil converter, or a name that is
// already taken panics: those are programming errors at wiring time.
func RegisterFrontend(def Frontend) { frontend.Register(def) }

// LookupFrontend returns the named frontend's definition.
func LookupFrontend(name string) (Frontend, bool) { return frontend.Lookup(name) }

// Frontends lists the registered frontend names, sorted.
func Frontends() []string { return frontend.Names() }

// FrontendConfigAs coerces a FrontendConfig value to the frontend's own
// config type T — the helper third-party converters use so config-type
// mismatch errors read uniformly. nil and a nil *T select the zero value.
func FrontendConfigAs[T any](frontendName string, cfg any) (T, error) {
	return frontend.ConfigAs[T](frontendName, cfg)
}

// openTrace opens a trace file and resolves its frontend (named, or
// detected from the sniffed prefix / extension), leaving the returned
// reader positioned at the start of the trace. The caller closes f.
func openTrace(path, frontendName string) (Frontend, *bufio.Reader, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return Frontend{}, nil, nil, err
	}
	br := bufio.NewReaderSize(f, frontend.SniffLen)
	prefix, err := br.Peek(frontend.SniffLen)
	if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
		f.Close()
		return Frontend{}, nil, nil, fmt.Errorf("sim: reading %s: %w", path, err)
	}
	def, err := resolveFrontend(frontendName, prefix, path)
	if err != nil {
		f.Close()
		return Frontend{}, nil, nil, err
	}
	return def, br, f, nil
}

// ConvertTraceFile converts a trace file into a GOAL schedule through the
// frontend registry. frontendName == "" auto-detects the format (content
// sniffing on the file's first bytes, extension fallback); cfg is the
// frontend's typed configuration (nil = defaults). Conversion streams
// from the file.
func ConvertTraceFile(path, frontendName string, cfg any) (*Schedule, error) {
	def, br, f, err := openTrace(path, frontendName)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := def.Convert(br, cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: converting %s via %q frontend: %w", path, def.Name, err)
	}
	return s, nil
}

// ConvertTraceFileVia converts like ConvertTraceFile, but resolves the
// frontend first and then looks its configuration up in configs by name
// (a missing entry selects that frontend's defaults). It returns the
// resolved name alongside the schedule, and reads the input exactly once
// — callers that would otherwise detect-then-convert in two passes (the
// schedgen CLI, non-seekable inputs) use this.
func ConvertTraceFileVia(path, frontendName string, configs map[string]any) (*Schedule, string, error) {
	def, br, f, err := openTrace(path, frontendName)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	s, err := def.Convert(br, configs[def.Name])
	if err != nil {
		return nil, def.Name, fmt.Errorf("sim: converting %s via %q frontend: %w", path, def.Name, err)
	}
	return s, def.Name, nil
}

// DetectFrontend reports which registered frontend owns the trace file at
// path, by content sniffing on its first bytes with the file's extension
// as fallback — detection only, no conversion.
func DetectFrontend(path string) (Frontend, error) {
	def, _, f, err := openTrace(path, "")
	if err != nil {
		return Frontend{}, err
	}
	f.Close()
	return def, nil
}

// ConvertTrace converts an in-memory serialised trace into a GOAL
// schedule through the frontend registry; see ConvertTraceFile. Frontends
// that decode from bytes (Frontend.ConvertBytes — the "goal" frontend)
// are handed b itself, so a binary schedule is never copied.
func ConvertTrace(b []byte, frontendName string, cfg any) (*Schedule, error) {
	prefix := b
	if len(prefix) > frontend.SniffLen {
		prefix = prefix[:frontend.SniffLen]
	}
	def, err := resolveFrontend(frontendName, prefix, "")
	if err != nil {
		return nil, err
	}
	var s *Schedule
	if def.ConvertBytes != nil {
		s, err = def.ConvertBytes(b, cfg)
	} else {
		s, err = def.Convert(bytes.NewReader(b), cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: converting trace via %q frontend: %w", def.Name, err)
	}
	return s, nil
}

// resolveFrontend picks the frontend: the named one, or format detection.
func resolveFrontend(name string, prefix []byte, path string) (Frontend, error) {
	if name != "" {
		def, ok := frontend.Lookup(name)
		if !ok {
			return Frontend{}, fmt.Errorf("sim: unknown frontend %q (registered: %s)", name, strings.Join(frontend.Names(), ", "))
		}
		return def, nil
	}
	def, err := frontend.Detect(prefix, path)
	if err != nil {
		return Frontend{}, fmt.Errorf("sim: %w", err)
	}
	return def, nil
}

// WriteGOALText prints a schedule in the textual GOAL format (paper Fig 3).
func WriteGOALText(w io.Writer, s *Schedule) error { return goal.WriteText(w, s) }

// WriteGOALBinary encodes a schedule in the compact binary GOAL format.
func WriteGOALBinary(w io.Writer, s *Schedule) error { return goal.WriteBinary(w, s) }

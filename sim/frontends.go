package sim

import (
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
// (name, content sniffer, extension fallback) and its trace-to-GOAL
// conversion over the whole trace in memory. The built-in frontends
// self-register at init:
//
//	goal    GOAL schedules themselves, textual or binary (pass-through)
//	nsys    nsys-like GPU reports via the 4-stage NCCL pipeline (§3.1.2)
//	mpi     liballprof-style MPI traces via Schedgen (§3.1.1)
//	spc     SPC block-I/O traces via the Direct Drive model (§3.1.3)
//	chakra  Chakra-like execution traces (the AstraSim input format)
//
// Third-party ingestion registers the same way; a frontend's Convert may
// name the contract through this package's aliases: func(b []byte, cfg
// any) (*sim.Schedule, error).
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

// ConvertTraceFile reads a trace file and converts it like ConvertTrace;
// detection additionally falls back to the file's extension when no
// sniffer claims the content.
func ConvertTraceFile(path, frontendName string, cfg any) (*Schedule, error) {
	s, _, err := convertTraceFile(path, frontendName, cfg)
	return s, err
}

// convertTraceFile is ConvertTraceFile, also naming the frontend that
// converted the trace.
func convertTraceFile(path, frontendName string, cfg any) (*Schedule, string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	return convertTrace(b, path, frontendName, cfg)
}

// ConvertTrace converts a serialised trace held in memory into a GOAL
// schedule through the frontend registry — the one conversion every trace
// workload takes. frontendName == "" auto-detects the format by content
// sniffing on b's first bytes; cfg is the frontend's typed configuration
// (nil = defaults). The frontend is handed b itself, so a binary GOAL
// schedule is never copied.
func ConvertTrace(b []byte, frontendName string, cfg any) (*Schedule, error) {
	s, _, err := convertTrace(b, "", frontendName, cfg)
	return s, err
}

// convertTrace converts b, read from path ("" for a trace in memory), and
// names the frontend that converted it.
func convertTrace(b []byte, path, frontendName string, cfg any) (*Schedule, string, error) {
	def, err := ResolveFrontend(frontendName, b, path)
	if err != nil {
		return nil, "", err
	}
	s, err := def.Convert(b, cfg)
	if err != nil {
		what := "trace"
		if path != "" {
			what = path
		}
		return nil, "", fmt.Errorf("sim: converting %s via %q frontend: %w", what, def.Name, err)
	}
	return s, def.Name, nil
}

// ResolveFrontend reports which frontend converts the trace b: the named
// one, or — name == "" — the one that detects it, by content sniffing on
// b's first bytes with path's extension as the fallback (path may be
// empty). Callers that pick a per-frontend configuration (the schedgen
// CLI) resolve first, then pass the resolved name to ConvertTrace.
func ResolveFrontend(name string, b []byte, path string) (Frontend, error) {
	if name != "" {
		def, ok := frontend.Lookup(name)
		if !ok {
			return Frontend{}, fmt.Errorf("sim: unknown frontend %q (registered: %s)", name, strings.Join(frontend.Names(), ", "))
		}
		return def, nil
	}
	if len(b) > frontend.SniffLen {
		b = b[:frontend.SniffLen]
	}
	def, err := frontend.Detect(b, path)
	if err != nil {
		return Frontend{}, fmt.Errorf("sim: %w", err)
	}
	return def, nil
}

// WriteGOALText prints a schedule in the textual GOAL format (paper Fig 3).
func WriteGOALText(w io.Writer, s *Schedule) error { return goal.WriteText(w, s) }

// WriteGOALBinary encodes a schedule in the compact binary GOAL format.
func WriteGOALBinary(w io.Writer, s *Schedule) error { return goal.WriteBinary(w, s) }

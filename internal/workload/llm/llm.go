// Package llm generates distributed LLM-training workloads with the
// parallelisation strategies of the paper's AI validation (§5.2, Fig 8):
// tensor (TP), pipeline (PP), data (DP) and expert (EP) parallelism over
// Llama- and Mixture-of-Experts-style transformer models, plus a DLRM
// recommendation workload.
//
// A generation run produces a per-GPU logical program (compute kernels,
// NCCL collectives, pipeline sends/receives, per-stream placement), which
// renders to either
//
//   - an nsys-like report (internal/trace/nsys) feeding the 4-stage GOAL
//     pipeline — the ATLAHS path, or
//   - a Chakra-like execution trace (internal/trace/chakra) feeding the
//     AstraSim-lite baseline — the comparison path of Fig 8/9.
//
// Byte counts and compute times follow the usual Megatron accounting
// (activations = microbatch*seq*hidden*elem, two TP allreduces per layer
// and direction, gradient ring allreduce of the stage's parameter shard,
// MoE dispatch/combine all-to-alls over the EP group) with one-sample
// microbatches, bf16 elements and 300 TFLOP/s per GPU, scaled by Config.Scale so packet-level
// simulation of large configurations stays tractable. A workload is one
// training iteration.
package llm

import (
	"fmt"

	"atlahs/internal/trace/nsys"
	"atlahs/internal/xrand"
)

// Model describes a transformer (or DLRM) architecture.
type Model struct {
	Name    string
	Layers  int
	Hidden  int
	SeqLen  int
	Experts int     // 0 for dense models
	ParamsB float64 // total parameters in billions
	DLRM    bool    // recommendation-model structure instead of transformer
}

// Parallelism is the TP/PP/DP/EP decomposition. GPUs = TP*PP*DP. Each
// pipeline step carries one sample (a microbatch of 1), so a data-parallel
// replica runs GlobalBatch/DP microbatches.
type Parallelism struct {
	TP, PP, DP, EP int
	GlobalBatch    int
}

// GPUs returns the total GPU count.
func (p Parallelism) GPUs() int { return p.TP * p.PP * p.DP }

// Config is a full workload specification. A workload traces one
// training iteration.
type Config struct {
	Model Model
	Par   Parallelism
	// Scale multiplies every byte count and compute time (default 1). The
	// experiments use < 1 to shrink paper-sized runs to tractable
	// simulations; the factor is recorded in experiment output.
	Scale float64
	Seed  uint64
}

// The hardware the kernel times and byte counts assume.
const (
	gpuTflops   = 300 // effective throughput for kernel times
	bytesPerElt = 2   // activation/gradient element size (bf16)
)

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

// Validate checks the parallelisation shape.
func (c Config) Validate() error {
	p := c.Par
	if p.TP < 1 || p.PP < 1 || p.DP < 1 {
		return fmt.Errorf("llm: TP/PP/DP must be >= 1")
	}
	if p.EP < 1 {
		return fmt.Errorf("llm: EP must be >= 1 (1 disables expert parallelism)")
	}
	if p.EP > p.DP || p.DP%p.EP != 0 {
		return fmt.Errorf("llm: EP (%d) must divide DP (%d)", p.EP, p.DP)
	}
	if c.Model.Layers%p.PP != 0 {
		return fmt.Errorf("llm: %d layers not divisible by PP=%d", c.Model.Layers, p.PP)
	}
	if p.GlobalBatch < p.DP {
		return fmt.Errorf("llm: global batch %d below DP=%d", p.GlobalBatch, p.DP)
	}
	if c.Model.Experts == 0 && p.EP > 1 {
		return fmt.Errorf("llm: EP>1 requires an MoE model")
	}
	return nil
}

// --- presets (paper Table 1 / Fig 8 workloads) -------------------------------

// Llama7B returns the Llama 2 7B architecture.
func Llama7B() Model {
	return Model{Name: "Llama 7B", Layers: 32, Hidden: 4096, SeqLen: 4096, ParamsB: 7}
}

// Llama70B returns the Llama 2 70B architecture.
func Llama70B() Model {
	return Model{Name: "Llama 70B", Layers: 80, Hidden: 8192, SeqLen: 4096, ParamsB: 70}
}

// Mistral8x7B returns the Mixtral 8x7B MoE architecture.
func Mistral8x7B() Model {
	return Model{Name: "Mistral 8x7B", Layers: 32, Hidden: 4096, SeqLen: 4096, Experts: 8, ParamsB: 47}
}

// MoE8x13B returns an 8-expert 13B-base MoE.
func MoE8x13B() Model {
	return Model{Name: "MoE 8x13B", Layers: 40, Hidden: 5120, SeqLen: 4096, Experts: 8, ParamsB: 87}
}

// MoE8x70B returns an 8-expert 70B-base MoE.
func MoE8x70B() Model {
	return Model{Name: "MoE 8x70B", Layers: 80, Hidden: 8192, SeqLen: 4096, Experts: 8, ParamsB: 467}
}

// DLRMModel returns a DLRM-style recommendation model.
func DLRMModel() Model {
	return Model{Name: "DLRM", Layers: 8, Hidden: 2048, SeqLen: 1, ParamsB: 2, DLRM: true}
}

// --- logical program ----------------------------------------------------------

type opKind int

const (
	opComp opKind = iota
	opColl
	opSend
	opRecv
)

// lop is one logical operation of a GPU's program.
type lop struct {
	kind   opKind
	stream int
	name   string
	durNs  int64  // opComp
	coll   string // nsys.Coll* for opColl
	bytes  int64
	comm   string
	root   int // comm-relative
	peer   int // comm-relative (send/recv)
}

// program is the workload before rendering.
type program struct {
	cfg   Config
	ngpus int
	comms map[string][]int
	ops   [][]lop // per gpu
}

// streams used by the renderers.
const (
	streamCompute = 0 // kernels, TP/EP/DP collectives launch stream
	streamPP      = 1 // pipeline sends/receives
)

// coordinates of a GPU in the parallel topology. Megatron order: TP
// fastest, then PP, then DP.
func gpuOf(dp, pp, tp int, par Parallelism) int {
	return (dp*par.PP+pp)*par.TP + tp
}

// build constructs the logical program.
func build(cfg Config) (*program, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	par := cfg.Par
	p := &program{
		cfg:   cfg,
		ngpus: par.GPUs(),
		comms: map[string][]int{},
		ops:   make([][]lop, par.GPUs()),
	}
	rng := xrand.New(cfg.Seed ^ 0x4c4c4d) // "LLM"

	// communicators
	world := make([]int, p.ngpus)
	for i := range world {
		world[i] = i
	}
	p.comms["world"] = world
	tpComm := func(dp, pp int) string {
		name := fmt.Sprintf("tp.d%d.p%d", dp, pp)
		if _, ok := p.comms[name]; !ok {
			g := make([]int, par.TP)
			for t := 0; t < par.TP; t++ {
				g[t] = gpuOf(dp, pp, t, par)
			}
			p.comms[name] = g
		}
		return name
	}
	ppComm := func(dp, tp int) string {
		name := fmt.Sprintf("pp.d%d.t%d", dp, tp)
		if _, ok := p.comms[name]; !ok {
			g := make([]int, par.PP)
			for s := 0; s < par.PP; s++ {
				g[s] = gpuOf(dp, s, tp, par)
			}
			p.comms[name] = g
		}
		return name
	}
	dpComm := func(pp, tp int) string {
		if par.TP == 1 && par.PP == 1 {
			return "world" // pure data parallelism: the DP group IS the world
		}
		name := fmt.Sprintf("dp.p%d.t%d", pp, tp)
		if _, ok := p.comms[name]; !ok {
			g := make([]int, par.DP)
			for d := 0; d < par.DP; d++ {
				g[d] = gpuOf(d, pp, tp, par)
			}
			p.comms[name] = g
		}
		return name
	}
	epComm := func(dp, pp, tp int) string {
		blk := dp / par.EP
		name := fmt.Sprintf("ep.b%d.p%d.t%d", blk, pp, tp)
		if _, ok := p.comms[name]; !ok {
			g := make([]int, par.EP)
			for e := 0; e < par.EP; e++ {
				g[e] = gpuOf(blk*par.EP+e, pp, tp, par)
			}
			p.comms[name] = g
		}
		return name
	}

	if cfg.Model.DLRM {
		buildDLRM(p, rng)
		return p, nil
	}

	scale := func(v float64) int64 {
		s := int64(v * cfg.Scale)
		if s < 1 && v > 0 {
			s = 1
		}
		return s
	}
	m := cfg.Model
	layersPerStage := m.Layers / par.PP
	nMicro := par.GlobalBatch / par.DP
	if nMicro < 1 {
		nMicro = 1
	}
	tokens := int64(m.SeqLen) // one sample per microbatch
	actBytes := scale(float64(tokens * int64(m.Hidden) * bytesPerElt))
	// fwd time of one layer shard: ~2*P_layer/TP flops per token
	paramsPerLayer := m.ParamsB * 1e9 / float64(m.Layers)
	fwdNsLayer := int64(2 * paramsPerLayer / float64(par.TP) * float64(tokens) / (gpuTflops * 1e3) * cfg.Scale)
	if fwdNsLayer < 1000 {
		fwdNsLayer = 1000
	}
	gradBytes := scale(m.ParamsB * 1e9 / float64(par.PP) / float64(par.TP) * bytesPerElt)

	for dp := 0; dp < par.DP; dp++ {
		for pp := 0; pp < par.PP; pp++ {
			for tp := 0; tp < par.TP; tp++ {
				g := gpuOf(dp, pp, tp, par)
				var ops []lop
				jit := 1 + 0.02*rng.Float64()
				for mb := 0; mb < nMicro; mb++ {
					// ---- forward ----
					if pp > 0 {
						ops = append(ops, lop{kind: opRecv, stream: streamPP, name: "pp_recv_fwd",
							bytes: actBytes, comm: ppComm(dp, tp), peer: pp - 1})
					}
					for l := 0; l < layersPerStage; l++ {
						ops = append(ops, lop{kind: opComp, stream: streamCompute, name: "fwd_layer",
							durNs: int64(float64(fwdNsLayer) * jit)})
						if par.TP > 1 {
							// Megatron: two allreduces per layer forward
							for k := 0; k < 2; k++ {
								ops = append(ops, lop{kind: opColl, stream: streamCompute, name: "tp_allreduce_fwd",
									coll: nsys.CollAllReduce, bytes: actBytes, comm: tpComm(dp, pp)})
							}
						}
						if m.Experts > 0 {
							// MoE dispatch + combine over the EP group
							epBytes := actBytes
							if par.EP > 1 {
								for k := 0; k < 2; k++ {
									ops = append(ops, lop{kind: opColl, stream: streamCompute, name: "ep_alltoall_fwd",
										coll: nsys.CollAllToAll, bytes: epBytes / int64(par.EP), comm: epComm(dp, pp, tp)})
								}
							}
						}
					}
					if pp < par.PP-1 {
						ops = append(ops, lop{kind: opSend, stream: streamPP, name: "pp_send_fwd",
							bytes: actBytes, comm: ppComm(dp, tp), peer: pp + 1})
					}
					// ---- backward ----
					if pp < par.PP-1 {
						ops = append(ops, lop{kind: opRecv, stream: streamPP, name: "pp_recv_bwd",
							bytes: actBytes, comm: ppComm(dp, tp), peer: pp + 1})
					}
					for l := 0; l < layersPerStage; l++ {
						ops = append(ops, lop{kind: opComp, stream: streamCompute, name: "bwd_layer",
							durNs: int64(2 * float64(fwdNsLayer) * jit)})
						if par.TP > 1 {
							for k := 0; k < 2; k++ {
								ops = append(ops, lop{kind: opColl, stream: streamCompute, name: "tp_allreduce_bwd",
									coll: nsys.CollAllReduce, bytes: actBytes, comm: tpComm(dp, pp)})
							}
						}
						if m.Experts > 0 && par.EP > 1 {
							for k := 0; k < 2; k++ {
								ops = append(ops, lop{kind: opColl, stream: streamCompute, name: "ep_alltoall_bwd",
									coll: nsys.CollAllToAll, bytes: actBytes / int64(par.EP), comm: epComm(dp, pp, tp)})
							}
						}
					}
					if pp > 0 {
						ops = append(ops, lop{kind: opSend, stream: streamPP, name: "pp_send_bwd",
							bytes: actBytes, comm: ppComm(dp, tp), peer: pp - 1})
					}
				}
				// ---- gradient sync + optimiser ----
				if par.DP > 1 {
					ops = append(ops, lop{kind: opColl, stream: streamCompute, name: "dp_grad_allreduce",
						coll: nsys.CollAllReduce, bytes: gradBytes, comm: dpComm(pp, tp)})
				}
				ops = append(ops, lop{kind: opComp, stream: streamCompute, name: "optimizer_step",
					durNs: int64(float64(fwdNsLayer) * float64(layersPerStage) / 4)})
				p.ops[g] = ops
			}
		}
	}
	return p, nil
}

// buildDLRM emits the recommendation-model structure: embedding all-to-all,
// dense MLP compute, gradient allreduce.
func buildDLRM(p *program, rng *xrand.RNG) {
	cfg := p.cfg
	scale := func(v float64) int64 {
		s := int64(v * cfg.Scale)
		if s < 1 && v > 0 {
			s = 1
		}
		return s
	}
	embBytes := scale(float64(int64(cfg.Par.GlobalBatch) * int64(cfg.Model.Hidden) * bytesPerElt))
	gradBytes := scale(cfg.Model.ParamsB * 1e9 * bytesPerElt / 8)
	compNs := int64(1_500_000 * cfg.Scale)
	if compNs < 1000 {
		compNs = 1000
	}
	for g := 0; g < p.ngpus; g++ {
		jit := 1 + 0.02*rng.Float64()
		p.ops[g] = []lop{
			{kind: opComp, stream: streamCompute, name: "embedding_lookup", durNs: int64(float64(compNs) * jit / 4)},
			{kind: opColl, stream: streamCompute, name: "emb_alltoall", coll: nsys.CollAllToAll, bytes: embBytes / int64(p.ngpus), comm: "world"},
			{kind: opComp, stream: streamCompute, name: "mlp_fwd", durNs: int64(float64(compNs) * jit)},
			{kind: opComp, stream: streamCompute, name: "mlp_bwd", durNs: int64(2 * float64(compNs) * jit)},
			{kind: opColl, stream: streamCompute, name: "emb_alltoall_bwd", coll: nsys.CollAllToAll, bytes: embBytes / int64(p.ngpus), comm: "world"},
			{kind: opColl, stream: streamCompute, name: "dp_grad_allreduce", coll: nsys.CollAllReduce, bytes: gradBytes, comm: "world"},
		}
	}
}

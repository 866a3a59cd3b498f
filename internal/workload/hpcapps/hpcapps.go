// Package hpcapps generates liballprof-style MPI traces reproducing the
// communication patterns of the HPC proxy applications the paper validates
// against (§5.3, Fig 10, Table 1): HPCG, LULESH, LAMMPS, ICON, OpenMX and
// CloverLeaf. Each generator emits the application's documented exchange
// structure — stencil halo exchanges via nonblocking point-to-point,
// reduction cadences, FFT transposes — with per-step compute drawn from a
// seeded lognormal distribution, so Schedgen and the simulation backends
// exercise the same code paths real traces would.
package hpcapps

import (
	"fmt"
	"sort"

	"atlahs/internal/trace/mpitrace"
	"atlahs/internal/xrand"
)

// App identifies a generator.
type App string

// Supported applications.
const (
	HPCG       App = "hpcg"
	LULESH     App = "lulesh"
	LAMMPS     App = "lammps"
	ICON       App = "icon"
	OpenMX     App = "openmx"
	CloverLeaf App = "cloverleaf"
)

// Config parameterises a trace generation run.
type Config struct {
	App   App
	Ranks int
	Steps int // timesteps / iterations (default per app)
	Seed  uint64
	// ScaleBytes scales message sizes (1.0 = nominal).
	ScaleBytes float64
}

func (c Config) withDefaults() Config {
	if c.Steps <= 0 {
		c.Steps = 10
	}
	if c.ScaleBytes <= 0 {
		c.ScaleBytes = 1
	}
	return c
}

// Generate produces the MPI trace for the configured application.
func Generate(cfg Config) (*mpitrace.Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.Ranks < 2 {
		return nil, fmt.Errorf("hpcapps: need at least 2 ranks")
	}
	switch cfg.App {
	case HPCG:
		return stencilApp(cfg, stencilParams{
			dims: 3, faceBytes: 64 * 1024, computeNs: 2_400_000, jitter: 0.08,
			allreducePerStep: 3, allreduceBytes: 8,
			// multigrid coarse-level halos: extra small exchanges
			extraHaloEvery: 1, extraHaloBytes: 8 * 1024,
		}), nil
	case LULESH:
		return stencilApp(cfg, stencilParams{
			dims: 3, faceBytes: 96 * 1024, computeNs: 3_200_000, jitter: 0.06,
			allreducePerStep: 1, allreduceBytes: 8,
			corners: true, // LULESH exchanges with all 26 neighbours
		}), nil
	case LAMMPS:
		return stencilApp(cfg, stencilParams{
			dims: 3, faceBytes: 48 * 1024, computeNs: 1_800_000, jitter: 0.10,
			allreducePerStep: 0, allreduceBytes: 8,
			allreduceEvery: 5, // thermo output cadence
			fftEvery:       5, // PPPM long-range solve: transpose alltoall
			fftBytes:       4 * 1024,
		}), nil
	case ICON:
		return stencilApp(cfg, stencilParams{
			dims: 2, faceBytes: 32 * 1024, computeNs: 2_000_000, jitter: 0.12,
			allreducePerStep: 2, allreduceBytes: 64,
			bcastEvery: 10, bcastBytes: 4096, // configuration broadcast cadence
		}), nil
	case CloverLeaf:
		return stencilApp(cfg, stencilParams{
			dims: 2, faceBytes: 128 * 1024, computeNs: 2_800_000, jitter: 0.05,
			allreducePerStep: 1, allreduceBytes: 8,
			reduceEvery: 10, reduceBytes: 64, // field summaries to rank 0
		}), nil
	case OpenMX:
		return openMX(cfg), nil
	default:
		return nil, fmt.Errorf("hpcapps: unknown application %q", cfg.App)
	}
}

// ---------------------------------------------------------------------------

// stencilParams describes a halo-exchange proxy app.
type stencilParams struct {
	dims             int   // 2 or 3 dimensional domain decomposition
	corners          bool  // include diagonal neighbours (26/8-point stencils)
	faceBytes        int64 // bytes per face exchange
	computeNs        int64 // mean per-step compute
	jitter           float64
	allreducePerStep int
	allreduceBytes   int64
	allreduceEvery   int // additional allreduce every k steps
	bcastEvery       int
	bcastBytes       int64
	reduceEvery      int
	reduceBytes      int64
	extraHaloEvery   int
	extraHaloBytes   int64
	fftEvery         int
	fftBytes         int64
}

// decompose factors n into dims balanced factors (largest first).
func decompose(n, dims int) []int {
	out := make([]int, dims)
	for i := range out {
		out[i] = 1
	}
	// repeatedly divide by the largest prime factor, assigning to the
	// currently smallest dimension
	rem := n
	for rem > 1 {
		f := smallestPrimeFactor(rem)
		sort.Ints(out)
		out[0] *= f
		rem /= f
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

func smallestPrimeFactor(n int) int {
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			return f
		}
	}
	return n
}

// coords/rankOf map between rank ids and grid coordinates.
func coords(rank int, grid []int) []int {
	c := make([]int, len(grid))
	for i := len(grid) - 1; i >= 0; i-- {
		c[i] = rank % grid[i]
		rank /= grid[i]
	}
	return c
}

func rankOf(c []int, grid []int) int {
	r := 0
	for i := 0; i < len(grid); i++ {
		r = r*grid[i] + c[i]
	}
	return r
}

// neighbours returns the ranks adjacent to rank in the grid (periodic
// boundaries), optionally including diagonal corners.
func neighbours(rank int, grid []int, corners bool) []int {
	c := coords(rank, grid)
	seen := map[int]bool{rank: true}
	var out []int
	var walk func(dim int, cur []int, moved bool)
	walk = func(dim int, cur []int, moved bool) {
		if dim == len(grid) {
			if moved {
				r := rankOf(cur, grid)
				if !seen[r] {
					seen[r] = true
					out = append(out, r)
				}
			}
			return
		}
		for _, d := range []int{0, -1, 1} {
			if !corners && d != 0 && moved {
				continue // axis-aligned only: one moved dimension
			}
			next := make([]int, len(cur))
			copy(next, cur)
			next[dim] = ((cur[dim]+d)%grid[dim] + grid[dim]) % grid[dim]
			if grid[dim] == 1 && d != 0 {
				continue
			}
			if grid[dim] == 2 && d == 1 {
				continue // avoid duplicate neighbour in 2-wide dims
			}
			walk(dim+1, next, moved || d != 0)
		}
	}
	walk(0, c, false)
	sort.Ints(out)
	return out
}

// stencilApp generates the halo-exchange trace.
func stencilApp(cfg Config, p stencilParams) *mpitrace.Trace {
	rng := xrand.New(cfg.Seed ^ 0x48504341) // "HPCA"
	grid := decompose(cfg.Ranks, p.dims)
	tr := mpitrace.New(cfg.Ranks)
	clock := make([]int64, cfg.Ranks)
	face := int64(float64(p.faceBytes) * cfg.ScaleBytes)
	if face < 1 {
		face = 1
	}

	// per-rank jittered compute time (persistent load imbalance plus
	// per-step noise)
	rankSpeed := make([]float64, cfg.Ranks)
	for r := range rankSpeed {
		rankSpeed[r] = 1 + 0.05*rng.Float64()
	}
	appendEv := func(r int, ev mpitrace.Event) {
		tr.Append(r, ev)
	}
	for step := 0; step < cfg.Steps; step++ {
		for r := 0; r < cfg.Ranks; r++ {
			// compute phase
			comp := int64(float64(p.computeNs) * rankSpeed[r] * rng.LogNormal(0, p.jitter))
			clock[r] += comp
			// halo exchange: Irecv all, Isend all, Wait all
			nb := neighbours(r, grid, p.corners)
			req := int64(1)
			var reqs []int64
			for _, peer := range nb {
				appendEv(r, mpitrace.Event{
					Type: mpitrace.Irecv, Peer: peer, Bytes: face, Tag: int32(step % 4096),
					Req: req, Root: -1, Start: clock[r], End: clock[r] + 200,
				})
				clock[r] += 200
				reqs = append(reqs, req)
				req++
			}
			for _, peer := range nb {
				appendEv(r, mpitrace.Event{
					Type: mpitrace.Isend, Peer: peer, Bytes: face, Tag: int32(step % 4096),
					Req: req, Root: -1, Start: clock[r], End: clock[r] + 300,
				})
				clock[r] += 300
				reqs = append(reqs, req)
				req++
			}
			for _, q := range reqs {
				appendEv(r, mpitrace.Event{
					Type: mpitrace.Wait, Peer: -1, Req: q, Root: -1,
					Start: clock[r], End: clock[r] + 100,
				})
				clock[r] += 100
			}
			// extra coarse-level halo (multigrid)
			if p.extraHaloEvery > 0 && step%p.extraHaloEvery == 0 && p.extraHaloBytes > 0 {
				sz := int64(float64(p.extraHaloBytes) * cfg.ScaleBytes)
				if sz < 1 {
					sz = 1
				}
				for _, peer := range nb {
					if peer > r {
						appendEv(r, mpitrace.Event{
							Type: mpitrace.Send, Peer: peer, Bytes: sz, Tag: 4097,
							Root: -1, Start: clock[r], End: clock[r] + 200,
						})
					} else {
						appendEv(r, mpitrace.Event{
							Type: mpitrace.Recv, Peer: peer, Bytes: sz, Tag: 4097,
							Root: -1, Start: clock[r], End: clock[r] + 200,
						})
					}
					clock[r] += 200
				}
			}
			// collectives close the step
			for k := 0; k < p.allreducePerStep; k++ {
				appendEv(r, mpitrace.Event{
					Type: mpitrace.Allreduce, Peer: -1, Bytes: p.allreduceBytes,
					Root: -1, Start: clock[r], End: clock[r] + 500,
				})
				clock[r] += 500
			}
			if p.allreduceEvery > 0 && step%p.allreduceEvery == 0 {
				appendEv(r, mpitrace.Event{
					Type: mpitrace.Allreduce, Peer: -1, Bytes: p.allreduceBytes,
					Root: -1, Start: clock[r], End: clock[r] + 500,
				})
				clock[r] += 500
			}
			if p.fftEvery > 0 && step%p.fftEvery == 0 {
				sz := int64(float64(p.fftBytes) * cfg.ScaleBytes)
				if sz < 1 {
					sz = 1
				}
				appendEv(r, mpitrace.Event{
					Type: mpitrace.Alltoall, Peer: -1, Bytes: sz,
					Root: -1, Start: clock[r], End: clock[r] + 1000,
				})
				clock[r] += 1000
			}
			if p.bcastEvery > 0 && step%p.bcastEvery == 0 {
				appendEv(r, mpitrace.Event{
					Type: mpitrace.Bcast, Peer: -1, Bytes: p.bcastBytes, Root: 0,
					Start: clock[r], End: clock[r] + 400,
				})
				clock[r] += 400
			}
			if p.reduceEvery > 0 && step%p.reduceEvery == 0 {
				appendEv(r, mpitrace.Event{
					Type: mpitrace.ReduceOp, Peer: -1, Bytes: p.reduceBytes, Root: 0,
					Start: clock[r], End: clock[r] + 400,
				})
				clock[r] += 400
			}
		}
	}
	return tr
}

// openMX models the DFT workload: per SCF iteration a large band
// parallelisation alltoall, eigenvalue reductions and a broadcast of the
// updated density.
func openMX(cfg Config) *mpitrace.Trace {
	rng := xrand.New(cfg.Seed ^ 0x4f4d58) // "OMX"
	tr := mpitrace.New(cfg.Ranks)
	clock := make([]int64, cfg.Ranks)
	a2a := int64(24 * 1024 * cfg.ScaleBytes)
	if a2a < 1 {
		a2a = 1
	}
	red := int64(256 * 1024 * cfg.ScaleBytes)
	if red < 1 {
		red = 1
	}
	for step := 0; step < cfg.Steps; step++ {
		for r := 0; r < cfg.Ranks; r++ {
			comp := int64(4_000_000 * rng.LogNormal(0, 0.1))
			clock[r] += comp
			tr.Append(r, mpitrace.Event{
				Type: mpitrace.Alltoall, Peer: -1, Bytes: a2a, Root: -1,
				Start: clock[r], End: clock[r] + 1000,
			})
			clock[r] += 1000
			tr.Append(r, mpitrace.Event{
				Type: mpitrace.Allreduce, Peer: -1, Bytes: red, Root: -1,
				Start: clock[r], End: clock[r] + 800,
			})
			clock[r] += 800
			tr.Append(r, mpitrace.Event{
				Type: mpitrace.Bcast, Peer: -1, Bytes: red / 4, Root: 0,
				Start: clock[r], End: clock[r] + 500,
			})
			clock[r] += 500
		}
	}
	return tr
}

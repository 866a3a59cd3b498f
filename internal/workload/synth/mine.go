// Package synth mines statistical workload models from resolved GOAL
// schedules and samples them back into schedules at arbitrary rank counts
// (ROADMAP direction 4; the counts/patterns analysis collective_profiler
// performs on Alltoallv profiles, generalised to whole GOAL DAGs).
//
// Mine walks a schedule once and summarises it as a results.WorkloadModel
// (schema atlahs.model/v1): per-rank send-count and compute distributions,
// the global send-size mix split into traffic classes with spatial
// destination-offset histograms, and the dependency-depth profile that
// fixes the generated phase structure. Generate samples a model into a
// bulk-synchronous schedule at a requested rank count, deterministically
// for a given (model, ranks, seed) — the same triple always yields
// bit-identical schedules, which is what lets the service's
// content-addressed run cache answer repeated synthetic submissions.
package synth

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"atlahs/internal/goal"
	"atlahs/results"
)

// exactBucketLimit is the distinct-value count up to which histograms keep
// one degenerate bucket per value instead of power-of-two ranges.
const exactBucketLimit = 64

// exactClassLimit is the distinct-size count up to which sends form one
// traffic class per exact message size.
const exactClassLimit = 16

// maxPhases caps the superstep count derived from the depth profile so a
// pathologically serial source schedule cannot explode generation cost.
const maxPhases = 1024

// Mine extracts a statistical workload model from a resolved schedule.
// The comment is stored as provenance. Mining an empty schedule (no ranks
// or no ops) is an error: there is nothing to model.
func Mine(s *goal.Schedule, comment string) (*results.WorkloadModel, error) {
	n := s.NumRanks()
	if n == 0 {
		return nil, fmt.Errorf("synth: cannot mine a schedule with no ranks")
	}
	var (
		calcs      []int64 // per-op calc durations
		sizes      []int64 // per-send sizes
		calcByRank = make([]int64, n)
		sendByRank = make([]int64, n)
		totalOps   int64
		totalBytes int64
		totalCalc  int64
	)
	type classSample struct {
		size int64
		off  int64 // (dst-src+n) % n, in [1, n)
	}
	var samples []classSample
	for r := range s.Ranks {
		rp := &s.Ranks[r]
		totalOps += int64(rp.Len())
		ops := rp.Cursor()
		for range rp.Len() {
			op := ops.Next()
			size := op.Size()
			switch op.Kind() {
			case goal.KindCalc:
				calcs = append(calcs, size)
				calcByRank[r] += size
				totalCalc += size
			case goal.KindSend:
				sizes = append(sizes, size)
				sendByRank[r]++
				totalBytes += size
				off := (int64(op.Peer()) - int64(r) + int64(n)) % int64(n)
				samples = append(samples, classSample{size: size, off: off})
			}
		}
	}
	if totalOps == 0 {
		return nil, fmt.Errorf("synth: cannot mine a schedule with no ops")
	}

	depthMean, depthMax := depthProfile(s)
	phases := int(math.Round(depthMean)) - 1
	if phases < 1 {
		phases = 1
	}
	if phases > maxPhases {
		phases = maxPhases
	}

	m := &results.WorkloadModel{
		Comment:       comment,
		SourceRanks:   n,
		SourceOps:     totalOps,
		DepthMean:     depthMean,
		DepthMax:      depthMax,
		Phases:        phases,
		Calc:          mineDist(calcs),
		CalcNsPerRank: mineDist(calcByRank),
		SendsPerRank:  mineDist(sendByRank),
		Sizes:         mineDist(sizes),
	}
	if totalBytes > 0 {
		m.CalcCommRatio = float64(totalCalc) / float64(totalBytes)
	}

	// Traffic classes: group sends by exact size while the size mix is
	// small, by power-of-two size class otherwise. Class keys sort so the
	// model encoding is canonical regardless of op order.
	if len(samples) > 0 {
		distinct := map[int64]struct{}{}
		for _, sm := range samples {
			distinct[sm.size] = struct{}{}
		}
		exact := len(distinct) <= exactClassLimit
		classKey := func(size int64) int64 {
			if exact {
				return size
			}
			return int64(log2Class(size))
		}
		groups := map[int64][]classSample{}
		for _, sm := range samples {
			k := classKey(sm.size)
			groups[k] = append(groups[k], sm)
		}
		keys := make([]int64, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			grp := groups[k]
			cls := results.TrafficClass{
				Count:   int64(len(grp)),
				Offsets: make([]int64, results.ModelOffsetBins),
			}
			szs := make([]int64, len(grp))
			for i, sm := range grp {
				szs[i] = sm.size
				cls.Offsets[offsetBin(sm.off, n)]++
			}
			cls.Sizes = mineDist(szs)
			m.Classes = append(m.Classes, cls)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("synth: mined model invalid: %w", err)
	}
	return m, nil
}

// offsetBin folds a rank offset in [0, n) into one of ModelOffsetBins
// equal-width bins, so the spatial shape survives rescaling.
func offsetBin(off int64, n int) int {
	b := int(off * int64(results.ModelOffsetBins) / int64(n))
	if b >= results.ModelOffsetBins {
		b = results.ModelOffsetBins - 1
	}
	return b
}

// log2Class maps a non-negative value to its power-of-two class (0 maps to
// class 0 alongside 1).
func log2Class(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v)) - 1
}

// depthProfile computes each rank's critical path length in ops (longest
// requires/irequires chain, via Kahn's algorithm) and returns the mean and
// max across ranks. Empty ranks count depth 0.
func depthProfile(s *goal.Schedule) (mean float64, max int) {
	var sum float64
	for r := range s.Ranks {
		d := rankDepth(&s.Ranks[r])
		sum += float64(d)
		if d > max {
			max = d
		}
	}
	if n := s.NumRanks(); n > 0 {
		mean = sum / float64(n)
	}
	return mean, max
}

// rankDepth returns the longest dependency chain of one rank program,
// measured in ops.
func rankDepth(rp *goal.RankProgram) int {
	n := rp.Len()
	if n == 0 {
		return 0
	}
	reqSucc, ireqSucc := rp.Requires.Invert(), rp.IRequires.Invert()
	indeg := make([]int32, n)
	depth := make([]int32, n)
	queue := make([]int32, 0, n)
	req, ireq := rp.Requires.Cursor(), rp.IRequires.Cursor()
	for i := 0; i < n; i++ {
		indeg[i] = int32(req.Next() + ireq.Next())
		if indeg[i] == 0 {
			depth[i] = 1
			queue = append(queue, int32(i))
		}
	}
	var best int32
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if depth[v] > best {
			best = depth[v]
		}
		for _, succ := range [2][]int32{reqSucc.Of(int(v)), ireqSucc.Of(int(v))} {
			for _, w := range succ {
				if d := depth[v] + 1; d > depth[w] {
					depth[w] = d
				}
				indeg[w]--
				if indeg[w] == 0 {
					queue = append(queue, w)
				}
			}
		}
	}
	return int(best)
}

// mineDist summarises one sample set as a Dist: moments plus a histogram
// with exact-value buckets for small supports and power-of-two buckets
// (bounded by each class's actual min/max) for large ones.
func mineDist(values []int64) results.Dist {
	d := results.Dist{Count: int64(len(values))}
	if len(values) == 0 {
		return d
	}
	sorted := append([]int64(nil), values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	d.Min, d.Max = sorted[0], sorted[len(sorted)-1]
	var sum float64
	for _, v := range sorted {
		sum += float64(v)
	}
	d.Mean = sum / float64(len(sorted))
	var sq float64
	for _, v := range sorted {
		dv := float64(v) - d.Mean
		sq += dv * dv
	}
	d.Std = math.Sqrt(sq / float64(len(sorted)))

	distinct := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			distinct++
		}
	}
	if distinct <= exactBucketLimit {
		// One degenerate bucket per distinct value.
		for i := 0; i < len(sorted); {
			j := i
			for j < len(sorted) && sorted[j] == sorted[i] {
				j++
			}
			d.Hist = append(d.Hist, results.Bucket{Lo: sorted[i], Hi: sorted[i], N: int64(j - i)})
			i = j
		}
		return d
	}
	// Power-of-two classes, with each bucket bounded by the actual values
	// it holds so buckets stay tight, ordered and non-overlapping.
	for i := 0; i < len(sorted); {
		c := log2Class(sorted[i])
		j := i
		for j < len(sorted) && log2Class(sorted[j]) == c {
			j++
		}
		d.Hist = append(d.Hist, results.Bucket{Lo: sorted[i], Hi: sorted[j-1], N: int64(j - i)})
		i = j
	}
	return d
}

package results

import (
	"fmt"
	"io"
	"math"
)

// ModelSchema identifies the wire layout EncodeModelJSON writes and
// DecodeModelJSON reads. Like atlahs.results/v1 it is append-only:
// released fields keep their names and types; new optional fields may be
// added.
const ModelSchema = "atlahs.model/v1"

// ModelOffsetBins is the fixed resolution of a TrafficClass's destination
// offset histogram: offsets (dst-src mod ranks) are folded into this many
// equal-width bins so the spatial shape of a pattern survives rescaling to
// a different rank count.
const ModelOffsetBins = 32

// WorkloadModel is a statistical model of a GOAL workload, mined from a
// resolved schedule (internal/workload/synth.Mine) and sampled back into a
// schedule at an arbitrary rank count (synth.Generate). It captures the
// per-rank communication volume, the message-size mix split into traffic
// classes with spatial offset histograms, the compute budget, and the
// dependency-depth profile that sets the generated phase structure.
type WorkloadModel struct {
	// Comment is free-form provenance (e.g. the mined trace's name).
	Comment string `json:"comment,omitempty"`
	// SourceRanks is the rank count of the mined schedule.
	SourceRanks int `json:"source_ranks"`
	// SourceOps is the total op count of the mined schedule.
	SourceOps int64 `json:"source_ops"`

	// DepthMean and DepthMax profile the per-rank critical path measured
	// in ops (longest requires/irequires chain).
	DepthMean float64 `json:"depth_mean"`
	DepthMax  int     `json:"depth_max"`
	// Phases is the superstep count generation unrolls the model into,
	// derived from the depth profile at mine time. Always >= 1.
	Phases int `json:"phases"`

	// Calc is the distribution of individual calc-op durations (ns).
	Calc Dist `json:"calc"`
	// CalcNsPerRank is the distribution of per-rank total compute (ns).
	CalcNsPerRank Dist `json:"calc_ns_per_rank"`
	// SendsPerRank is the distribution of per-rank send counts.
	SendsPerRank Dist `json:"sends_per_rank"`
	// Sizes is the global send-size distribution (bytes) across all
	// traffic classes.
	Sizes Dist `json:"sizes"`
	// Classes splits the sends into message-size classes, each with its
	// own size distribution and destination-offset histogram. Class counts
	// sum to Sizes.Count.
	Classes []TrafficClass `json:"classes,omitempty"`
	// CalcCommRatio is the compute/communication ratio: total calc
	// nanoseconds per total send byte (0 when the workload has no sends).
	CalcCommRatio float64 `json:"calc_comm_ratio"`
}

// TrafficClass is one message-size class of a model's sends: how many
// messages fall in the class, their size distribution, and where they go.
type TrafficClass struct {
	// Count is the number of sends in this class.
	Count int64 `json:"count"`
	// Sizes is the class's send-size distribution (bytes).
	Sizes Dist `json:"sizes"`
	// Offsets is the destination histogram over ModelOffsetBins bins of
	// the normalised rank offset (dst-src mod ranks) / ranks; entries sum
	// to Count.
	Offsets []int64 `json:"offsets"`
}

// Dist summarises one empirical distribution: moments plus a histogram.
// A zero Dist (Count 0) means "no samples".
type Dist struct {
	// Count is the number of samples.
	Count int64 `json:"count"`
	// Mean and Std are the sample mean and population standard deviation.
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	// Min and Max bound the samples.
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	// Hist partitions the samples into ordered, non-overlapping buckets
	// whose counts sum to Count. Exact values get degenerate buckets
	// (Lo == Hi); heavy-tailed data gets power-of-two ranges.
	Hist []Bucket `json:"hist,omitempty"`
}

// Bucket is one histogram bucket: N samples observed in [Lo, Hi].
type Bucket struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	N  int64 `json:"n"`
}

// jsonModel is the wire form of a WorkloadModel: the model's own json tags
// plus the schema discriminator.
type jsonModel struct {
	Schema string `json:"schema"`
	WorkloadModel
}

// Validate checks the model's structural invariants: positive source
// shape, at least one phase, finite moments, ordered histograms whose
// bucket counts sum to the distribution count, and traffic classes that
// partition the global send-size distribution with full offset histograms.
func (m *WorkloadModel) Validate() error {
	if m.SourceRanks <= 0 {
		return fmt.Errorf("results: model needs SourceRanks > 0, got %d", m.SourceRanks)
	}
	if m.SourceOps <= 0 {
		return fmt.Errorf("results: model needs SourceOps > 0, got %d", m.SourceOps)
	}
	if m.Phases < 1 {
		return fmt.Errorf("results: model needs Phases >= 1, got %d", m.Phases)
	}
	if !isFinite(m.DepthMean) || m.DepthMean < 0 {
		return fmt.Errorf("results: model DepthMean %v out of range", m.DepthMean)
	}
	if m.DepthMax < 0 {
		return fmt.Errorf("results: model DepthMax %d out of range", m.DepthMax)
	}
	if !isFinite(m.CalcCommRatio) || m.CalcCommRatio < 0 {
		return fmt.Errorf("results: model CalcCommRatio %v out of range", m.CalcCommRatio)
	}
	for _, d := range []struct {
		name string
		dist *Dist
	}{
		{"calc", &m.Calc}, {"calc_ns_per_rank", &m.CalcNsPerRank},
		{"sends_per_rank", &m.SendsPerRank}, {"sizes", &m.Sizes},
	} {
		if err := d.dist.validate(); err != nil {
			return fmt.Errorf("results: model dist %q: %w", d.name, err)
		}
	}
	var classed int64
	for i := range m.Classes {
		c := &m.Classes[i]
		if c.Count <= 0 {
			return fmt.Errorf("results: model class %d: needs Count > 0, got %d", i, c.Count)
		}
		if err := c.Sizes.validate(); err != nil {
			return fmt.Errorf("results: model class %d sizes: %w", i, err)
		}
		if c.Sizes.Count != c.Count {
			return fmt.Errorf("results: model class %d: size dist counts %d samples, class has %d", i, c.Sizes.Count, c.Count)
		}
		if len(c.Offsets) != ModelOffsetBins {
			return fmt.Errorf("results: model class %d: %d offset bins, want %d", i, len(c.Offsets), ModelOffsetBins)
		}
		var off int64
		for b, n := range c.Offsets {
			if n < 0 {
				return fmt.Errorf("results: model class %d: negative offset bin %d", i, b)
			}
			off += n
		}
		if off != c.Count {
			return fmt.Errorf("results: model class %d: offset bins sum to %d, class has %d", i, off, c.Count)
		}
		classed += c.Count
	}
	if classed != m.Sizes.Count {
		return fmt.Errorf("results: model classes cover %d sends, sizes dist has %d", classed, m.Sizes.Count)
	}
	return nil
}

// validate checks one distribution's internal consistency.
func (d *Dist) validate() error {
	if d.Count < 0 {
		return fmt.Errorf("negative sample count %d", d.Count)
	}
	if !isFinite(d.Mean) || !isFinite(d.Std) || d.Std < 0 {
		return fmt.Errorf("non-finite moments (mean %v, std %v)", d.Mean, d.Std)
	}
	if d.Count == 0 {
		if len(d.Hist) != 0 {
			return fmt.Errorf("empty dist carries %d histogram buckets", len(d.Hist))
		}
		return nil
	}
	if d.Min > d.Max {
		return fmt.Errorf("min %d > max %d", d.Min, d.Max)
	}
	if len(d.Hist) == 0 {
		return fmt.Errorf("%d samples but no histogram", d.Count)
	}
	var sum int64
	prev := int64(math.MinInt64)
	for i, b := range d.Hist {
		if b.N <= 0 {
			return fmt.Errorf("bucket %d: non-positive count %d", i, b.N)
		}
		if b.Lo > b.Hi {
			return fmt.Errorf("bucket %d: lo %d > hi %d", i, b.Lo, b.Hi)
		}
		if i > 0 && b.Lo <= prev {
			return fmt.Errorf("bucket %d: overlaps or disorders previous (lo %d <= prev hi %d)", i, b.Lo, prev)
		}
		if b.Lo < d.Min || b.Hi > d.Max {
			return fmt.Errorf("bucket %d: [%d,%d] outside [%d,%d]", i, b.Lo, b.Hi, d.Min, d.Max)
		}
		prev = b.Hi
		sum += b.N
	}
	if sum != d.Count {
		return fmt.Errorf("histogram sums to %d, dist has %d samples", sum, d.Count)
	}
	return nil
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// EncodeModelJSON validates m and writes it as one atlahs.model/v1
// document. The encoding is canonical: encoding the same model always
// yields identical bytes.
func EncodeModelJSON(w io.Writer, m *WorkloadModel) error {
	if err := m.Validate(); err != nil {
		return err
	}
	return EncodeDoc(w, jsonModel{Schema: ModelSchema, WorkloadModel: *m})
}

// DecodeModelJSON reads one WorkloadModel written by EncodeModelJSON
// through DecodeDoc, rejecting any model Validate rejects. The returned
// model compares equal (DeepEqual) to the encoded one.
func DecodeModelJSON(r io.Reader) (*WorkloadModel, error) {
	var jm jsonModel
	if err := readDoc(r, "model", ModelSchema, &jm); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	m := jm.WorkloadModel
	m.Classes = orNil(m.Classes)
	for _, d := range []*Dist{&m.Calc, &m.CalcNsPerRank, &m.SendsPerRank, &m.Sizes} {
		d.Hist = orNil(d.Hist)
	}
	for i := range m.Classes {
		m.Classes[i].Sizes.Hist = orNil(m.Classes[i].Sizes.Hist)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

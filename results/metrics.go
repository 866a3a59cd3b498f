package results

import (
	"fmt"
	"io"
	"math"
	"regexp"
)

// MetricsSchema identifies the one-shot metrics snapshot document this
// package reads and writes — a list of metric samples, attached to
// sim.Result and served by the simulation service at GET
// /v1/runs/{id}/metrics and GET /metrics?format=json. Like the other
// schemas in this package it is append-only.
const MetricsSchema = "atlahs.metrics/v1"

// metricNameRE matches Prometheus-compatible metric names: the safe
// common subset of the Prometheus data model.
var metricNameRE = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)

// MetricsSnapshot is a point-in-time reading of a set of instruments:
// one Metric per sample, in the fixed order its producer lists them, a
// family's samples together (labelled ones sorted by label value).
type MetricsSnapshot struct {
	// Schema is always MetricsSchema; set by NewMetricsSnapshot and
	// checked by DecodeMetricsJSON.
	Schema  string   `json:"schema"`
	Metrics []Metric `json:"metrics"`
}

// Metric is one sample of a MetricsSnapshot. Counters and gauges carry
// Value; histograms carry Count, Sum and Buckets instead.
type Metric struct {
	Name string `json:"name"`
	// Type is "counter", "gauge" or "histogram".
	Type string `json:"type"`
	Help string `json:"help,omitempty"`
	// Label/LabelValue identify one child of a labelled family (empty for
	// unlabelled metrics).
	Label      string  `json:"label,omitempty"`
	LabelValue string  `json:"label_value,omitempty"`
	Value      float64 `json:"value,omitempty"`
	// Count and Sum are the histogram's total observation count and sum.
	Count uint64  `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	// Buckets are cumulative counts per upper bound. JSON cannot encode
	// +Inf, so — unlike the Prometheus exposition — the +Inf bucket is
	// omitted: Count is the total, and observations above the last bound
	// are Count minus the last bucket's count.
	Buckets []MetricBucket `json:"buckets,omitempty"`
}

// MetricBucket is one cumulative histogram bucket: the number of
// observations less than or equal to the (finite) upper bound LE.
type MetricBucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// NewMetricsSnapshot wraps the given samples in a schema-stamped
// snapshot document.
func NewMetricsSnapshot(metrics []Metric) *MetricsSnapshot {
	return &MetricsSnapshot{Schema: MetricsSchema, Metrics: metrics}
}

// Validate checks the snapshot's schema string and every sample's shape.
func (ms *MetricsSnapshot) Validate() error {
	if ms.Schema != MetricsSchema {
		return fmt.Errorf("results: unknown metrics schema %q (want %q)", ms.Schema, MetricsSchema)
	}
	for i, m := range ms.Metrics {
		if !metricNameRE.MatchString(m.Name) {
			return fmt.Errorf("results: metric %d: invalid name %q", i, m.Name)
		}
		switch m.Type {
		case "counter", "gauge":
			if len(m.Buckets) != 0 {
				return fmt.Errorf("results: metric %q: %s carries histogram buckets", m.Name, m.Type)
			}
		case "histogram":
			prev := math.Inf(-1)
			var prevCount uint64
			for _, b := range m.Buckets {
				if !(b.LE > prev) || math.IsInf(b.LE, 1) || math.IsNaN(b.LE) {
					return fmt.Errorf("results: metric %q: bucket bounds must be finite and ascending", m.Name)
				}
				if b.Count < prevCount {
					return fmt.Errorf("results: metric %q: bucket counts must be cumulative", m.Name)
				}
				prev, prevCount = b.LE, b.Count
			}
			if prevCount > m.Count {
				return fmt.Errorf("results: metric %q: bucket count %d exceeds total %d", m.Name, prevCount, m.Count)
			}
		default:
			return fmt.Errorf("results: metric %q: unknown type %q", m.Name, m.Type)
		}
		if (m.Label == "") != (m.LabelValue == "") {
			return fmt.Errorf("results: metric %q: label and label_value must be set together", m.Name)
		}
		for _, v := range []float64{m.Value, m.Sum} {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return fmt.Errorf("results: metric %q: non-finite sample value", m.Name)
			}
		}
	}
	return nil
}

// EncodeMetricsJSON validates ms and writes it as one atlahs.metrics/v1
// document.
func EncodeMetricsJSON(w io.Writer, ms *MetricsSnapshot) error {
	if err := ms.Validate(); err != nil {
		return err
	}
	return EncodeDoc(w, ms)
}

// DecodeMetricsJSON reads one MetricsSnapshot written by
// EncodeMetricsJSON through DecodeDoc, rejecting malformed samples.
func DecodeMetricsJSON(r io.Reader) (*MetricsSnapshot, error) {
	var ms MetricsSnapshot
	if err := readDoc(r, "metrics", MetricsSchema, &ms); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	if err := ms.Validate(); err != nil {
		return nil, err
	}
	return &ms, nil
}

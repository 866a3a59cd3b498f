package results

// Series is one metric's trajectory across an ordered sequence of runs —
// the unit of run-history analytics. The analyzer (internal/analyze)
// builds them from a Store's run artifacts; the service's GET /v1/history
// and `atlahs-analyze history` render them. Points are chronological: the last point is "now", everything
// before it is history.
type Series struct {
	// Metric names what is measured: a derived key ("runtime_ps").
	Metric string `json:"metric"`
	// Unit optionally names the value's unit ("ps", "ns/op").
	Unit string `json:"unit,omitempty"`
	// Points are the observations, oldest first.
	Points []Point `json:"points"`
}

// Point is one observation in a Series.
type Point struct {
	// Label identifies the observation's origin: a run id, a history file
	// name, a commit SHA.
	Label string `json:"label"`
	// Unix is the observation's time in Unix seconds, when known (0 when
	// the source carries no timestamp).
	Unix int64 `json:"unix,omitempty"`
	// Value is the observed measurement.
	Value float64 `json:"value"`
}

package analyze

import (
	"fmt"
	"regexp"
	"sort"

	"atlahs/results"
)

// HistorySchema identifies the per-metric trajectory document served by
// GET /v1/history and emitted by `atlahs-analyze history -json`.
const HistorySchema = "atlahs.history/v1"

// History is the atlahs.history/v1 document: one Series per metric, plus
// the warnings of the walk that built them (inputs it skipped).
type History struct {
	Schema   string           `json:"schema"`
	Series   []results.Series `json:"series"`
	Warnings []string         `json:"warnings,omitempty"`
}

// runIDRE matches the ids the simulation service files runs under ("r_"
// plus 16 hex digits of the spec fingerprint — see internal/service).
// StoreHistory only walks entries with this shape: other artifacts in the
// store (experiment sweeps, say) are one-per-name documents, not history.
var runIDRE = regexp.MustCompile(`^r_[0-9a-f]{16}$`)

// HistoryEntry is one observation source: a labelled, timestamped bag of
// metric values. StoreHistory and the service's GET /v1/history build
// them; SeriesFrom pivots them into per-metric series.
type HistoryEntry struct {
	// Label identifies the observation (a run id).
	Label string
	// Unix is the observation time in Unix seconds (0 when unknown).
	Unix int64
	// Values maps metric name to observed value.
	Values map[string]float64
	// Units optionally maps metric name to unit.
	Units map[string]string
}

// SeriesFrom pivots chronological entries into one Series per metric,
// sorted by metric name. A metric absent from some entries simply has
// fewer points; point order follows entry order.
func SeriesFrom(entries []HistoryEntry) []results.Series {
	byMetric := map[string]*results.Series{}
	var names []string
	for _, e := range entries {
		metrics := make([]string, 0, len(e.Values))
		for m := range e.Values {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			s, ok := byMetric[m]
			if !ok {
				s = &results.Series{Metric: m, Unit: e.Units[m]}
				byMetric[m] = s
				names = append(names, m)
			}
			s.Points = append(s.Points, results.Point{Label: e.Label, Unix: e.Unix, Value: e.Values[m]})
		}
	}
	sort.Strings(names)
	series := make([]results.Series, len(names))
	for i, name := range names {
		series[i] = *byMetric[name]
	}
	return series
}

// StoreHistory walks a results.Store's service-run artifacts oldest
// first (by artifact ModTime, then name) and returns one Series per
// derived metric — runtime_ps, ops, executed-op tallies — labelled by
// run id. Artifacts that fail to load or validate are skipped with their
// error collected into warnings rather than failing the whole walk: a
// history reader must survive one corrupt artifact.
func StoreHistory(st *results.Store) (series []results.Series, warnings []string, err error) {
	entries, err := st.List()
	if err != nil {
		return nil, nil, fmt.Errorf("analyze: listing store: %w", err)
	}
	var runs []results.Entry
	for _, e := range entries {
		if runIDRE.MatchString(e.Name) {
			runs = append(runs, e)
		}
	}
	sort.SliceStable(runs, func(i, j int) bool {
		if !runs[i].ModTime.Equal(runs[j].ModTime) {
			return runs[i].ModTime.Before(runs[j].ModTime)
		}
		return runs[i].Name < runs[j].Name
	})
	var hist []HistoryEntry
	for _, e := range runs {
		sweep, err := st.Load(e.Name)
		if err != nil {
			warnings = append(warnings, fmt.Sprintf("skipping run %s: %v", e.Name, err))
			continue
		}
		if len(sweep.Derived) == 0 {
			continue
		}
		hist = append(hist, HistoryEntry{
			Label:  e.Name,
			Unix:   e.ModTime.Unix(),
			Values: sweep.Derived,
		})
	}
	return SeriesFrom(hist), warnings, nil
}

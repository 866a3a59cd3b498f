package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"atlahs/internal/analyze"
	"atlahs/results"
)

// The analytics endpoint — the service-side face of internal/analyze:
//
//	GET /v1/analyze/diff?a=A&b=B     field-by-field diff of two runs'
//	                                 artifacts, gated for regressions
//
// It accepts ?format=html for the self-contained report, ?keys=cols
// (comma-separated row-match columns, default positional — run sweeps are
// per-rank tables with pinned row order) and ?threshold=F (relative
// worsening to flag, default 0.1; finite and >= 0).

// analyzeDiffResponse is the JSON body of GET /v1/analyze/diff.
type analyzeDiffResponse struct {
	A           string               `json:"a"`
	B           string               `json:"b"`
	Regressed   bool                 `json:"regressed"`
	Regressions []analyze.Regression `json:"regressions,omitempty"`
	Diff        json.RawMessage      `json:"diff"`
}

// runSweepByID loads one completed run's artifact back into a sweep.
func (s *Service) runSweepByID(id string) (*results.Sweep, error) {
	snap, ok := s.Get(id)
	if !ok {
		return nil, fmt.Errorf("unknown run %q", id)
	}
	if snap.Status != StatusDone {
		return nil, fmt.Errorf("run %s is %s; it can be analyzed once it is done", id, snap.Status)
	}
	sweep, err := results.DecodeJSON(bytes.NewReader(snap.Artifact))
	if err != nil {
		return nil, fmt.Errorf("run %s artifact: %w", id, err)
	}
	return sweep, nil
}

func (s *Service) handleAnalyzeDiff(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	aID, bID := q.Get("a"), q.Get("b")
	if aID == "" || bID == "" {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("want ?a=RUN&b=RUN"))
		return
	}
	a, err := s.runSweepByID(aID)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	b, err := s.runSweepByID(bID)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	var opts analyze.DiffOptions
	if keys := q.Get("keys"); keys != "" {
		opts.Keys = strings.Split(keys, ",")
	}
	threshold := 0.1
	if t := q.Get("threshold"); t != "" {
		threshold, err = strconv.ParseFloat(t, 64)
		if err == nil {
			err = analyze.CheckThreshold(threshold)
		}
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad threshold %q: %w", t, err))
			return
		}
	}
	d, err := analyze.Diff(a, b, opts)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	regs := analyze.Gate{RelThreshold: threshold}.Diff(d)
	if wantHTML(req) {
		s.writeHTML(w, &analyze.Report{
			Title:       fmt.Sprintf("atlahs service: %s vs %s", aID, bID),
			Diff:        d,
			Regressions: regs,
		})
		return
	}
	var raw bytes.Buffer
	if err := results.EncodeDiffJSON(&raw, d); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, analyzeDiffResponse{
		A:           aID,
		B:           bID,
		Regressed:   len(regs) > 0,
		Regressions: regs,
		Diff:        raw.Bytes(),
	})
}

// wantHTML reports whether the request asked for the rendered report.
func wantHTML(req *http.Request) bool {
	return req.URL.Query().Get("format") == "html"
}

// writeHTML renders one report document.
func (s *Service) writeHTML(w http.ResponseWriter, report *analyze.Report) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if err := analyze.RenderHTML(w, report); err != nil {
		s.log.Warn("service: rendering report", "report", report.Title, "err", err)
	}
}

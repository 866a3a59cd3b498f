package service

import (
	"encoding/json"
	"io"

	"atlahs/sim"
)

// JSONResult is the stable machine-readable rendering of a sim.Result:
// lower-case keys, the simulated runtime both human-readable and in
// picoseconds, and per-job node sets for composed scenarios. It is the
// one shape shared by `atlahs -json`, the service API's run responses,
// and the SSE "done" event, so consumers parse a single contract.
type JSONResult struct {
	Backend   string    `json:"backend"`
	Runtime   string    `json:"runtime"`
	RuntimePs int64     `json:"runtime_ps"`
	Ranks     int       `json:"ranks"`
	Workers   int       `json:"workers"`
	Parallel  bool      `json:"parallel"`
	Ops       int64     `json:"ops"`
	Events    uint64    `json:"events"`
	Sched     JSONSched `json:"sched"`
	Done      JSONTally `json:"done"`
	// JobNodes maps each composed job (Spec.Jobs order) to the fabric
	// nodes its ranks landed on; absent for single-workload runs.
	JobNodes [][]int  `json:"job_nodes,omitempty"`
	Net      *JSONNet `json:"net,omitempty"`
}

// JSONSched is the workload's size accounting.
type JSONSched struct {
	Ops       int64 `json:"ops"`
	Sends     int64 `json:"sends"`
	Recvs     int64 `json:"recvs"`
	Calcs     int64 `json:"calcs"`
	SendBytes int64 `json:"send_bytes"`
	DepEdges  int64 `json:"dep_edges"`
}

// JSONTally is the executed-op tally by kind.
type JSONTally struct {
	Calcs int64 `json:"calcs"`
	Sends int64 `json:"sends"`
	Recvs int64 `json:"recvs"`
}

// JSONNet is the packet-level fabric counters, present only for backends
// that track them: the result's "net" and the SSE "netstats" payload.
type JSONNet struct {
	PktsSent    uint64 `json:"pkts_sent"`
	Drops       uint64 `json:"drops"`
	Trims       uint64 `json:"trims"`
	Retransmits uint64 `json:"retransmits"`
}

// NewJSONResult renders a result into its wire shape.
func NewJSONResult(res *sim.Result) *JSONResult {
	return &JSONResult{
		Backend:   res.Backend,
		Runtime:   res.Runtime.String(),
		RuntimePs: int64(res.Runtime),
		Ranks:     res.Ranks,
		Workers:   res.Workers,
		Parallel:  res.Parallel,
		Ops:       res.Ops,
		Events:    res.Events,
		Sched: JSONSched{
			Ops:       res.Sched.Ops,
			Sends:     res.Sched.Sends,
			Recvs:     res.Sched.Recvs,
			Calcs:     res.Sched.Calcs,
			SendBytes: res.Sched.SendBytes,
			DepEdges:  res.Sched.DepEdges,
		},
		Done:     JSONTally{Calcs: res.Done.Calcs, Sends: res.Done.Sends, Recvs: res.Done.Recvs},
		JobNodes: res.JobNodes,
		Net:      newJSONNet(res.Net),
	}
}

// newJSONNet renders a backend's fabric counters, nil when it tracks none.
func newJSONNet(ns *sim.NetStats) *JSONNet {
	if ns == nil {
		return nil
	}
	return &JSONNet{PktsSent: ns.PktsSent, Drops: ns.Drops, Trims: ns.Trims, Retransmits: ns.Retransmits}
}

// WriteResultJSON writes the result as one JSON object followed by a
// newline — the `atlahs -json` output contract.
func WriteResultJSON(w io.Writer, res *sim.Result) error {
	return json.NewEncoder(w).Encode(NewJSONResult(res))
}

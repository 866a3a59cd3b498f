package service

import (
	"sync"
	"sync/atomic"

	"atlahs/internal/telemetry"
	"atlahs/sim"
)

// Event types, in the order a successful run emits them: one "started",
// interleaved "op" and "progress" streams, a "netstats" carrying
// Result.Net when the backend tracks fabric counters, and exactly one
// terminal "done" or "failed".
const (
	EventStarted  = "started"
	EventOp       = "op"
	EventProgress = "progress"
	EventNetStats = "netstats"
	EventDone     = "done"
	EventFailed   = "failed"
)

// Event is one streamed run event, bridged from a sim.Observer callback or,
// for "netstats" and the terminal event, from the run's outcome. Data
// holds the per-type payload (StartedData, OpData, ProgressData,
// JSONNet, DoneData, FailedData).
type Event struct {
	Type string `json:"type"`
	Run  string `json:"run"`
	Data any    `json:"data,omitempty"`
}

// StartedData mirrors sim.RunInfo: the resolved run shape. Every service
// run is serial, so Workers reads 1 and Parallel false; the keys stay for
// clients that read them.
type StartedData struct {
	Backend  string `json:"backend"`
	Ranks    int    `json:"ranks"`
	Ops      int64  `json:"ops"`
	Workers  int    `json:"workers"`
	Parallel bool   `json:"parallel"`
}

// OpData mirrors sim.OpEvent: one GOAL op's semantic completion.
type OpData struct {
	Rank int    `json:"rank"`
	Op   int32  `json:"op"`
	Kind string `json:"kind"`
	AtPs int64  `json:"at_ps"`
}

// ProgressData mirrors sim.ProgressEvent.
type ProgressData struct {
	Done  int64 `json:"done"`
	Total int64 `json:"total"`
	AtPs  int64 `json:"at_ps"`
}

// DoneData carries the finished run's result, plus the total number of
// op/progress events the bridge dropped to lagging subscribers over the
// run's lifetime — the stream's own completeness disclosure.
type DoneData struct {
	Result        *JSONResult `json:"result"`
	DroppedEvents int64       `json:"dropped_events"`
}

// FailedData carries the failure message.
type FailedData struct {
	Error         string `json:"error"`
	DroppedEvents int64  `json:"dropped_events"`
}

// subBuffer is each subscription's channel capacity. High-rate op/progress
// events are dropped (counted) when a subscriber lags behind it; lifecycle
// events displace buffered ones instead of being lost.
const subBuffer = 1024

// Subscription is one subscriber's view of a run's event stream. Receive
// from C until it closes (the terminal event is always the last delivery);
// call Close to detach early.
type Subscription struct {
	// C delivers events in publish order.
	C  <-chan Event
	ch chan Event
	r  *run
}

// Close detaches the subscription. Safe to call at any time, including
// after the stream already closed.
func (sub *Subscription) Close() {
	r := sub.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.subs[sub]; ok {
		delete(r.subs, sub)
		r.nsubs.Add(-1)
		if r.mx != nil {
			r.mx.sseSubscribers.Dec()
		}
		close(sub.ch)
	}
}

// deliver hands one event to the subscriber. Droppable events are counted
// and skipped when the buffer is full; others displace the oldest
// buffered event so lifecycle transitions always arrive. The caller holds
// the run's mutex, so at most one deliver per subscription runs at once.
func (sub *Subscription) deliver(ev Event, droppable bool) {
	select {
	case sub.ch <- ev:
		return
	default:
	}
	if droppable {
		sub.drop()
		return
	}
	for {
		select {
		case <-sub.ch:
			sub.drop()
		default:
		}
		select {
		case sub.ch <- ev:
			return
		default:
		}
	}
}

// drop books one discarded event on the run and the service metrics.
// The stream favours liveness over completeness: the terminal result is
// never dropped.
func (sub *Subscription) drop() {
	sub.r.drops.Add(1)
	if sub.r.mx != nil {
		sub.r.mx.sseDropped.Inc()
	}
}

// run is one content-addressed simulation job.
type run struct {
	id string
	// fp is the full fingerprint the id derives from, persisted in the
	// run's metadata sidecar so a rebuilt index can re-verify the address.
	fp string
	// spec is the pinned spec, resolved schedule included; execute takes
	// it and leaves the zero Spec behind.
	spec sim.Spec
	done chan struct{}
	// lookKeys are the fast-path cache keys pointing at this run, owned
	// and cleaned up by the Service under its own mutex.
	lookKeys []string
	// class is the admission class the run queued in, carried for
	// structured logs.
	class string
	// mx points at the owning service's metrics; nil on runs built
	// outside a service (tests).
	mx *serviceMetrics
	// timeline is the run's execution recorder when Config.Timeline is
	// on, drained by GET /v1/runs/{id}/trace.
	timeline *telemetry.Timeline
	// drops totals the op/progress events discarded across all of this
	// run's subscriptions, surfaced in the terminal event and run JSON.
	drops atomic.Int64

	// nsubs mirrors len(subs) so the op-rate publish path can skip the
	// mutex entirely while nobody is listening.
	nsubs atomic.Int32

	mu       sync.Mutex
	status   Status
	result   *sim.Result
	artifact []byte
	err      error
	subs     map[*Subscription]struct{}
}

func newRun(id, fp string, spec sim.Spec) *run {
	return &run{
		id:     id,
		fp:     fp,
		spec:   spec,
		status: StatusQueued,
		done:   make(chan struct{}),
		subs:   make(map[*Subscription]struct{}),
	}
}

// newDoneRun reconstructs an already-finished run from persisted state —
// the rebuilt cache entry a restarted service answers from. Its done
// channel is born closed, so waiters and late subscribers behave exactly
// as they do for a run that finished in this process.
func newDoneRun(id, fp string, res *sim.Result, artifact []byte, lookKeys []string) *run {
	r := &run{
		id:       id,
		fp:       fp,
		status:   StatusDone,
		result:   res,
		artifact: artifact,
		lookKeys: lookKeys,
		done:     make(chan struct{}),
		subs:     make(map[*Subscription]struct{}),
	}
	close(r.done)
	return r
}

// snapshot copies the run's current state.
func (r *run) snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		ID:       r.id,
		Status:   r.status,
		Result:   r.result,
		Artifact: r.artifact,
		Dropped:  r.drops.Load(),
	}
	if r.err != nil {
		snap.Err = r.err.Error()
	}
	return snap
}

// setStatus transitions a non-terminal state.
func (r *run) setStatus(st Status) {
	r.mu.Lock()
	r.status = st
	r.mu.Unlock()
}

// complete finishes the run successfully: record the result and artifact,
// publish the fabric counters of a backend that tracks them and then the
// terminal event, close every subscription, release waiters.
func (r *run) complete(res *sim.Result, artifact []byte) {
	if net := newJSONNet(res.Net); net != nil {
		r.publish(Event{Type: EventNetStats, Run: r.id, Data: *net}, false)
	}
	r.mu.Lock()
	r.status = StatusDone
	r.result = res
	r.artifact = artifact
	r.finishLocked(r.terminalEventLocked())
	r.mu.Unlock()
}

// fail finishes the run with an error.
func (r *run) fail(err error) {
	r.mu.Lock()
	r.status = StatusFailed
	r.err = err
	r.finishLocked(r.terminalEventLocked())
	r.mu.Unlock()
}

// finishLocked publishes the terminal event and closes all subscriptions;
// the caller holds r.mu.
func (r *run) finishLocked(ev Event) {
	for sub := range r.subs {
		sub.deliver(ev, false)
		close(sub.ch)
		delete(r.subs, sub)
		r.nsubs.Add(-1)
		if r.mx != nil {
			r.mx.sseSubscribers.Dec()
		}
	}
	close(r.done)
}

// terminalEventLocked builds the terminal event from the run's final
// state, for live subscribers as the run finishes and for late ones
// after; the caller holds r.mu and the status is terminal.
func (r *run) terminalEventLocked() Event {
	if r.status == StatusFailed {
		return Event{Type: EventFailed, Run: r.id, Data: FailedData{Error: r.err.Error(), DroppedEvents: r.drops.Load()}}
	}
	return Event{Type: EventDone, Run: r.id, Data: DoneData{Result: NewJSONResult(r.result), DroppedEvents: r.drops.Load()}}
}

// publish fans one live event out to every subscriber. Droppable events
// skip the lock while nobody subscribes — the common case for cached and
// batch submissions — so an unobserved run pays one atomic load per op.
func (r *run) publish(ev Event, droppable bool) {
	if droppable && r.nsubs.Load() == 0 {
		return
	}
	r.mu.Lock()
	for sub := range r.subs {
		sub.deliver(ev, droppable)
	}
	r.mu.Unlock()
}

// The run itself is the sim.Observer its simulation streams through; the
// per-run mutex serialises its callbacks with subscribers attaching and
// detaching on HTTP goroutines.

// RunStarted implements sim.Observer.
func (r *run) RunStarted(info sim.RunInfo) {
	r.publish(Event{Type: EventStarted, Run: r.id, Data: StartedData{
		Backend: info.Backend,
		Ranks:   info.Stats.Ranks,
		Ops:     info.Stats.Ops,
		Workers: 1,
	}}, false)
}

// OpCompleted implements sim.Observer. The no-subscriber check runs
// before the Event is even built: this is the per-op hot path, and
// constructing the boxed payload first would allocate once per simulated
// op on unobserved runs.
func (r *run) OpCompleted(ev sim.OpEvent) {
	if r.nsubs.Load() == 0 {
		return
	}
	r.publish(Event{Type: EventOp, Run: r.id, Data: OpData{
		Rank: ev.Rank,
		Op:   ev.Op,
		Kind: ev.Kind.String(),
		AtPs: int64(ev.At),
	}}, true)
}

// Progress implements sim.Observer.
func (r *run) Progress(ev sim.ProgressEvent) {
	if r.nsubs.Load() == 0 {
		return
	}
	r.publish(Event{Type: EventProgress, Run: r.id, Data: ProgressData{
		Done:  ev.Done,
		Total: ev.Total,
		AtPs:  int64(ev.At),
	}}, true)
}

// Subscribe attaches to a run's event stream. Subscribing to a finished
// run delivers its terminal event immediately and closes the stream, so
// late subscribers still learn the outcome.
func (s *Service) Subscribe(id string) (*Subscription, bool) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	sub := &Subscription{ch: make(chan Event, subBuffer), r: r}
	sub.C = sub.ch
	r.mu.Lock()
	if r.status.Terminal() {
		sub.ch <- r.terminalEventLocked()
		close(sub.ch)
	} else {
		r.subs[sub] = struct{}{}
		r.nsubs.Add(1)
		if r.mx != nil {
			r.mx.sseSubscribers.Inc()
		}
	}
	r.mu.Unlock()
	return sub, true
}

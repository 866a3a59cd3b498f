package service

import "sync"

// DefaultClass is the admission class of plain Submit calls and of HTTP
// submissions that name no submitter — the "interactive" share of the
// executor pool.
const DefaultClass = "interactive"

// jobQueue is the service's admission queue: bounded like the old FIFO
// channel, but fair across classes. Each class (a submitter, or one batch
// sweep) keeps its own FIFO, and executors drain the classes round-robin,
// so a thousand-spec sweep and a single interactive submission alternate
// instead of the sweep starving everything behind it. Within a class,
// order stays first-in first-out.
type jobQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	// capacity bounds the total queued runs across all classes; size is
	// the current total.
	capacity int
	size     int
	// classes holds each class's FIFO; ring is the round-robin order of
	// classes with pending work, and next indexes the class the next pop
	// serves.
	classes map[string][]*run
	ring    []string
	next    int
	closed  bool
}

func newJobQueue(capacity int) *jobQueue {
	q := &jobQueue{capacity: capacity, classes: make(map[string][]*run)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// depth returns the total queued runs across all classes.
func (q *jobQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// depths returns the queued-run count of every class with queued runs.
func (q *jobQueue) depths() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int, len(q.classes))
	for class, fifo := range q.classes {
		out[class] = len(fifo)
	}
	return out
}

// push admits runs into the named class atomically: either every run is
// queued or none is, so a batch cannot be half-admitted. It never blocks —
// a full queue fails fast with ErrQueueFull, a closed one with ErrClosed.
func (q *jobQueue) push(class string, rs ...*run) error {
	if len(rs) == 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.size+len(rs) > q.capacity {
		return ErrQueueFull
	}
	if _, ok := q.classes[class]; !ok {
		q.ring = append(q.ring, class)
	}
	q.classes[class] = append(q.classes[class], rs...)
	q.size += len(rs)
	q.cond.Broadcast()
	return nil
}

// pop blocks until a run is available (returning the head of the next
// class in round-robin order) or the queue is closed and drained
// (returning ok=false). Closing does not discard queued runs: executors
// keep popping until the backlog is empty, mirroring how the old channel
// drained on close.
func (q *jobQueue) pop() (*run, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.size == 0 {
		return nil, false
	}
	if q.next >= len(q.ring) {
		q.next = 0
	}
	class := q.ring[q.next]
	fifo := q.classes[class]
	r := fifo[0]
	q.size--
	if len(fifo) == 1 {
		delete(q.classes, class)
		q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
		// q.next now already indexes the class after the emptied one.
	} else {
		q.classes[class] = fifo[1:]
		q.next++
	}
	return r, true
}

// close stops admission and wakes blocked executors so they can drain the
// backlog and exit.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

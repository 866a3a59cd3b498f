package engine

// FIFO is the queue of an event source — a switch port, a link, a compute
// stream, a NIC: a long-lived object that schedules one handler bound at
// its creation and keeps what each firing has to act on here, in firing
// order, instead of in a closure per event. It is a growable ring buffer:
// Push and Pop are O(1) and a drained queue keeps its storage, so a source
// that has reached its working depth never allocates again. Capacity is a
// power of two (index arithmetic is a mask) and doubles when full,
// preserving order across the wrap. The zero FIFO is empty and ready.
type FIFO[T any] struct {
	buf  []T
	head int
	n    int
}

// Len reports how many elements are queued.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the oldest element; the caller checks Len first.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("engine: Pop from an empty FIFO")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference: what a popped pointer names may be recycled
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Clear empties the queue and keeps its storage.
func (q *FIFO[T]) Clear() {
	clear(q.buf)
	q.head, q.n = 0, 0
}

package pktnet

// fifo is a growable ring buffer: push and pop are O(1) and a drained
// queue keeps its storage, so a port that has reached its working depth
// never allocates again. Capacity is a power of two (index arithmetic is a
// mask) and doubles when full, preserving order across the wrap.
type fifo[T any] struct {
	buf  []T
	head int
	n    int
}

func (q *fifo[T]) len() int { return q.n }

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pop removes and returns the oldest element; the caller checks len first.
func (q *fifo[T]) pop() T {
	if q.n == 0 {
		panic("pktnet: pop from empty fifo")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference: a popped *packet may be recycled
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

func (q *fifo[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// clear empties the queue and keeps its storage.
func (q *fifo[T]) clear() {
	clear(q.buf)
	q.head, q.n = 0, 0
}

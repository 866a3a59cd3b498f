package engine

import "testing"

func TestFIFOWrapAroundGrowthKeepsOrder(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	pop := func(k int) {
		for ; k > 0; k-- {
			if got := q.Pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	push := func(k int) {
		for ; k > 0; k-- {
			q.Push(next)
			next++
		}
	}
	// Move the head into the middle of the ring, then grow while wrapped,
	// at every capacity from 4 to 1024.
	for round := 0; round < 9; round++ {
		push(len(q.buf)/2 + 3)
		pop(3)
		push(len(q.buf) + 1) // forces a grow with head != 0
		if q.Len() != next-want {
			t.Fatalf("len %d, want %d", q.Len(), next-want)
		}
		pop(q.Len() / 2)
	}
	pop(q.Len())
	if len(q.buf) < 1024 {
		t.Fatalf("ring grew only to %d", len(q.buf))
	}
	held := len(q.buf)
	push(held)
	pop(held)
	if len(q.buf) != held {
		t.Fatalf("a drained ring reallocated: %d -> %d", held, len(q.buf))
	}
	q.Push(7)
	q.Clear()
	if q.Len() != 0 {
		t.Fatal("clear left elements")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("pop from an empty fifo did not panic")
		}
	}()
	q.Pop()
}

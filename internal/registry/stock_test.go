package registry

import (
	"sync"
	"testing"
)

// TestStock: the zero Stock is ready, Take returns the value put back
// last first and a new zero value when the stock is empty, and k values
// out at once, on k goroutines, leave k once they are put back.
func TestStock(t *testing.T) {
	var s Stock[[]int]
	if n := s.Len(); n != 0 {
		t.Fatalf("a zero stock holds %d values", n)
	}
	if v := s.Take(); v == nil || *v != nil {
		t.Fatalf("an empty stock's Take = %v, want a new zero value", v)
	}

	a, b := &[]int{1}, &[]int{2}
	s.Put(a)
	s.Put(b)
	if got := s.Take(); got != b {
		t.Fatalf("Take returned %v, want the value put back last, %v", *got, *b)
	}
	if got := s.Take(); got != a {
		t.Fatalf("Take returned %v, want %v", *got, *a)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("after taking all it held the stock holds %d values", n)
	}

	// k goroutines each take a value and hold it until all have one.
	const k = 5
	out := make([]*[]int, k)
	var taken, done sync.WaitGroup
	taken.Add(k)
	done.Add(k)
	for i := range out {
		go func() {
			defer done.Done()
			out[i] = s.Take()
			taken.Done()
			taken.Wait()
			s.Put(out[i])
		}()
	}
	done.Wait()
	for i := range out {
		for j := range i {
			if out[i] == out[j] {
				t.Fatalf("Take returned one value to two callers at once")
			}
		}
	}
	if n := s.Len(); n != k {
		t.Fatalf("%d values out at once left %d in the stock, want %d", k, n, k)
	}
}

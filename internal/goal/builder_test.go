package goal

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// depCall is one Requires (or IRequires) call of a recorded build.
type depCall struct {
	start bool // IRequires
	op    OpID
	deps  []OpID
}

// randomDAG returns one rank's ops and its dependency calls in op order:
// every op depends on a few earlier ones, in one or two calls per kind.
func randomDAG(rng *rand.Rand, n int) ([]Op, []depCall) {
	ops := make([]Op, n)
	var calls []depCall
	for i := range ops {
		ops[i] = makeOp(KindCalc, int64(rng.Intn(1000)), -1, 0, int32(rng.Intn(3)))
		if i == 0 {
			continue
		}
		for c, ncalls := 0, rng.Intn(3); c < ncalls; c++ {
			deps := make([]OpID, rng.Intn(3))
			for k := range deps {
				deps[k] = OpID(rng.Intn(i))
			}
			calls = append(calls, depCall{start: rng.Intn(5) == 0, op: OpID(i), deps: deps})
		}
	}
	return ops, calls
}

// shuffledKeepingPerOpOrder reorders calls arbitrarily except that the
// calls naming one op in one table keep their relative order, which is
// what fixes the op's dependency list.
func shuffledKeepingPerOpOrder(rng *rand.Rand, calls []depCall) []depCall {
	type key struct {
		start bool
		op    OpID
	}
	queues := map[key][]depCall{}
	var order []key
	for _, c := range calls {
		k := key{c.start, c.op}
		queues[k] = append(queues[k], c)
		order = append(order, k)
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	out := make([]depCall, 0, len(calls))
	for _, k := range order {
		out = append(out, queues[k][0])
		queues[k] = queues[k][1:]
	}
	return out
}

// buildRank replays a recorded build on a one-rank builder: all ops, then
// the calls (interleave == false), or each op followed by the calls that
// name it (interleave == true, calls must be in op order). grow < 0 skips
// Grow; otherwise Grow reserves that share of the true counts, in percent.
func buildRank(ops []Op, calls []depCall, interleave bool, grow int) (*Schedule, *RankBuilder) {
	b := NewBuilder(1)
	rb := b.Rank(0)
	if grow >= 0 {
		var req, ireq int
		for _, c := range calls {
			if c.start {
				ireq += len(c.deps)
			} else {
				req += len(c.deps)
			}
		}
		rb.Grow(len(ops)*grow/100, req*grow/100, ireq*grow/100)
	}
	apply := func(c depCall) {
		if c.start {
			rb.IRequires(c.op, c.deps...)
		} else {
			rb.Requires(c.op, c.deps...)
		}
	}
	next := 0
	for _, op := range ops {
		id := rb.add(op)
		for interleave && next < len(calls) && calls[next].op == id {
			apply(calls[next])
			next++
		}
	}
	for _, c := range calls[next:] {
		apply(c)
	}
	before := *rb // Build clears the handle
	return b.Build(), &before
}

// TestBuilderPathsAgree: one random DAG, fed to the builder with its
// dependency calls in op order or shuffled, interleaved with the ops or
// after them, uncounted, exactly counted and under-counted, always builds
// the same schedule — reflect.DeepEqual and byte-identical when encoded.
// In-order input never spills, shuffled input does, an exact Grow leaves
// no spare capacity in the op array handed over, and no table has any.
func TestBuilderPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 100; trial++ {
		ops, calls := randomDAG(rng, 2+rng.Intn(80))
		want, _ := buildRank(ops, calls, true, -1)
		var wantBytes bytes.Buffer
		if err := WriteBinary(&wantBytes, want); err != nil {
			t.Fatal(err)
		}
		shuffled := shuffledKeepingPerOpOrder(rng, calls)
		for _, v := range []struct {
			name       string
			calls      []depCall
			interleave bool
			grow       int
			inOrder    bool
		}{
			{"in order, interleaved, exact Grow", calls, true, 100, true},
			{"in order, interleaved, Grow too small", calls, true, 40, true},
			{"in order, after the ops", calls, false, -1, true},
			{"in order, after the ops, exact Grow", calls, false, 100, true},
			{"shuffled", shuffled, false, -1, false},
			{"shuffled, exact Grow", shuffled, false, 100, false},
			{"shuffled, Grow too small", shuffled, false, 40, false},
		} {
			got, rb := buildRank(ops, v.calls, v.interleave, v.grow)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %s: schedule differs\ngot  %+v\nwant %+v", trial, v.name, got.Ranks[0], want.Ranks[0])
			}
			var buf bytes.Buffer
			if err := WriteBinary(&buf, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), wantBytes.Bytes()) {
				t.Fatalf("trial %d, %s: encoding differs", trial, v.name)
			}
			if v.inOrder && (rb.requires.spilled() || rb.irequires.spilled()) {
				t.Fatalf("trial %d, %s: a table spilled", trial, v.name)
			}
			rp := &got.Ranks[0]
			if v.inOrder && v.grow == 100 {
				for name, c := range map[string][2]int{
					"Ops":           {len(rp.Ops), cap(rp.Ops)},
					"Requires.enc":  {len(rp.Requires.enc), cap(rp.Requires.enc)},
					"IRequires.enc": {len(rp.IRequires.enc), cap(rp.IRequires.enc)},
				} {
					if c[0] != c[1] {
						t.Fatalf("trial %d, %s: %s has len %d, cap %d after an exact Grow", trial, v.name, name, c[0], c[1])
					}
				}
				if &rp.Ops[0] != &rb.ops[0] {
					t.Fatalf("trial %d, %s: Build copied instead of handing over", trial, v.name)
				}
			}
		}
		if _, rb := buildRank(ops, shuffled, false, -1); len(calls) > 20 && !rb.requires.spilled() {
			t.Fatalf("trial %d: %d shuffled calls did not spill", trial, len(calls))
		}
	}
}

// TestOverCountedGrowBuildsTheSame: reserving more than is added — down to
// a rank that was grown and then left empty — changes nothing a
// reflect.DeepEqual can see.
func TestOverCountedGrowBuildsTheSame(t *testing.T) {
	build := func(grow bool) *Schedule {
		b := NewBuilder(2)
		if grow {
			b.Rank(0).Grow(10, 10, 10)
			b.Rank(1).Grow(10, 10, 10)
		}
		rb := b.Rank(0)
		rb.Requires(rb.Calc(2), rb.Calc(1))
		return b.Build()
	}
	if grown, plain := build(true), build(false); !reflect.DeepEqual(grown, plain) {
		t.Fatalf("over-counted build differs:\n%+v\n%+v", grown.Ranks, plain.Ranks)
	}
}

// TestSpentBuilderPanics: Build hands the builder's arrays to the
// schedule, so using the builder or one of its rank handles afterwards
// must not silently write into (or beside) a schedule someone holds.
func TestSpentBuilderPanics(t *testing.T) {
	b := NewBuilder(2)
	rb := b.Rank(1)
	a := rb.Calc(1)
	c := rb.Calc(2)
	rb.Requires(c, a)
	s := b.Build()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, use := range map[string]func(){
		"Build":              func() { b.Build() },
		"MustBuild":          func() { b.MustBuild() },
		"Rank":               func() { b.Rank(0) },
		"handle.Calc":        func() { rb.Calc(3) },
		"handle.SendOn":      func() { rb.SendOn(8, 0, 0, 0) },
		"handle.Requires":    func() { rb.Requires(c, a) },
		"handle.IRequires":   func() { rb.IRequires(c, a) },
		"handle.Grow":        func() { rb.Grow(1, 1, 0) },
		"handle.Requires(0)": func() { rb.Requires(c) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "used after Build") {
					t.Errorf("%s on a spent builder: recovered %q, want a used-after-Build panic", name, msg)
				}
			}()
			use()
		}()
	}
	if n := len(s.Ranks[1].Ops); n != 2 {
		t.Fatalf("schedule has %d ops after the spent builder was poked, want 2", n)
	}
}

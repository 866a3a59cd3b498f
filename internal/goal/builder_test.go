package goal

import (
	"bytes"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"atlahs/internal/xrand"
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
// dependency calls interleaved with the ops or after them, uncounted,
// exactly counted and under-counted, always builds the same schedule —
// reflect.DeepEqual and byte-identical when encoded — and hands over one
// array per rank at exactly the length its layout needs.
func TestBuilderPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 100; trial++ {
		ops, calls := randomDAG(rng, 2+rng.Intn(80))
		want, _ := buildRank(ops, calls, true, -1)
		var wantBytes bytes.Buffer
		if err := WriteBinary(&wantBytes, want); err != nil {
			t.Fatal(err)
		}
		for _, v := range []struct {
			name       string
			interleave bool
			grow       int
		}{
			{"interleaved, exact Grow", true, 100},
			{"interleaved, Grow too small", true, 40},
			{"after the ops", false, -1},
			{"after the ops, exact Grow", false, 100},
		} {
			got, _ := buildRank(ops, calls, v.interleave, v.grow)
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
			if rp := &got.Ranks[0]; len(rp.ops) != cap(rp.ops) || len(rp.ops) != layoutWords(ops) {
				t.Fatalf("trial %d, %s: one array of len %d, cap %d, want %d exactly", trial, v.name, len(rp.ops), cap(rp.ops), layoutWords(ops))
			}
		}
	}
}

// layoutWords returns the length of the one array a rank of ops needs,
// counted from the ops' fields (see RankProgram): a short word per op, and
// when any op keeps side words, three index words per 64-op block and its
// side words.
func layoutWords(ops []Op) int {
	sides := 0
	for _, op := range ops {
		sides += sideWordsOf(op)
	}
	n := (len(ops) + 1) / 2
	if sides > 0 {
		n += 3*((len(ops)+63)/64) + sides
	}
	return n
}

// sideWordsOf returns how many side words op keeps, from its fields: none
// for a calc under 2^27 ns on cpu 0 to 14, one for a message under 2^26
// bytes on cpu 0 to 14 (its peer and tag), and otherwise its first word
// and, if it has one, its second: a message, a calc of 2^42 ns or more or
// on a cpu outside [0, maxMessageCPU], or an op in the reserved form.
func sideWordsOf(op Op) int {
	cpu, size := op.CPU(), op.Size()
	switch {
	case !op.held():
		return 2
	case op.Kind() == KindCalc && cpu >= 0 && cpu < 15 && size < 1<<27:
		return 0
	case op.Kind() != KindCalc && cpu < 15 && size < 1<<26:
		return 1
	case op.Kind() == KindCalc && cpu >= 0 && cpu <= maxMessageCPU && size < 1<<42:
		return 1
	}
	return 2
}

// TestConcurrentBuildsShareOpScratch: builders and ParseBinary calls on
// several goroutines take and give back the kept op scratch (opScratch)
// at once, counted and uncounted, and every schedule they make equals the
// one built serially.
func TestConcurrentBuildsShareOpScratch(t *testing.T) {
	fixtures := make([]scratchFixture, 6)
	for k := range fixtures {
		rng := xrand.New(uint64(k))
		f := &fixtures[k]
		f.refs = make([]refRank, 1+rng.Intn(4))
		for r := range f.refs {
			f.refs[r] = drawRank(rng, r, len(f.refs), 1+rng.Intn(300), uint8(k&1)<<6|uint8(k&2)<<6)
		}
		f.grow = k%3 == 0
		f.want = f.build()
		if err := f.want.Validate(); err != nil {
			t.Fatal(err)
		}
		f.bytes = binarySeed(f.want)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				f := &fixtures[(g+i)%len(fixtures)]
				got, err := f.build(), error(nil)
				if i%2 != 0 {
					got, err = ParseBinary(f.bytes)
				}
				if err != nil || !reflect.DeepEqual(got, f.want) {
					t.Errorf("goroutine %d, round %d: schedule differs from the serial build (%v)", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// scratchFixture is one schedule TestConcurrentBuildsShareOpScratch
// makes: its ranks' ops, whether it is built counted, and the schedule
// and encoding a serial build gives.
type scratchFixture struct {
	refs  []refRank
	grow  bool
	want  *Schedule
	bytes []byte
}

// build builds the fixture's ranks, each chained, with an exact Grow when
// grow is set.
func (f *scratchFixture) build() *Schedule {
	b := NewBuilder(len(f.refs))
	for r, ref := range f.refs {
		if f.grow {
			b.Rank(r).Grow(len(ref), len(ref), 0)
		}
		ref.build(b.Rank(r), true)
	}
	return b.Build()
}

// TestKeptOpScratchIsBounded: a build whose ranks' scratch adds up to more
// than opKeep bytes leaves opScratch holding at most opKeep bytes, and
// opKept counts them.
func TestKeptOpScratchIsBounded(t *testing.T) {
	const ranks, per = 4, opKeep / 12 / 3 // Grow takes 12 bytes an op
	b := NewBuilder(ranks)
	for r := range ranks {
		rb := b.Rank(r)
		rb.Grow(per, 0, 0)
		for range per {
			rb.Calc(1)
		}
	}
	b.Build()
	held := make([]*rankOps, opScratch.Len())
	var sum int64
	for k := range held {
		held[k] = opScratch.Take()
		sum += held[k].bytes()
	}
	for k := len(held) - 1; k >= 0; k-- {
		opScratch.Put(held[k])
	}
	if sum > opKeep || sum != opKept.Load() {
		t.Fatalf("opScratch holds %d bytes in %d scratches, opKept reads %d; want at most %d and equal", sum, len(held), opKept.Load(), opKeep)
	}
}

// TestBuilderRefusesOutOfOrderDependencies: each of a rank's two tables
// takes its Requires / IRequires calls in op order. A call that names an
// op older than the last one named on its table panics, naming the rule;
// calls that name the open op again, name any dependency (later ops
// too), or alternate between the two tables do not. A random DAG's calls,
// shuffled, panic exactly when some table sees an older op after a newer
// one.
func TestBuilderRefusesOutOfOrderDependencies(t *testing.T) {
	const rule = "a table's dependencies must be added in op order"
	replay := func(ops []Op, calls []depCall) (msg string) {
		b := NewBuilder(1)
		rb := b.Rank(0)
		for _, op := range ops {
			rb.add(op)
		}
		defer func() { msg, _ = recover().(string) }()
		for _, c := range calls {
			if c.start {
				rb.IRequires(c.op, c.deps...)
			} else {
				rb.Requires(c.op, c.deps...)
			}
		}
		b.Build()
		return ""
	}
	req := func(op OpID, deps ...OpID) depCall { return depCall{op: op, deps: deps} }
	ireq := func(op OpID, deps ...OpID) depCall { return depCall{start: true, op: op, deps: deps} }
	ops := make([]Op, 4)
	for _, c := range []struct {
		name   string
		calls  []depCall
		panics bool
	}{
		{"requires names an older op", []depCall{req(3, 0), req(2, 0)}, true},
		{"irequires names an older op", []depCall{ireq(2, 1), ireq(3, 2), ireq(1, 0)}, true},
		{"the open op again", []depCall{req(1, 0), req(2, 0), req(2, 1), req(2), req(3, 2), req(3, 0, 1)}, false},
		{"the tables are independent", []depCall{req(3, 2), ireq(1, 0), req(3, 1), ireq(2, 1), ireq(3, 0)}, false},
		{"forward dependencies", []depCall{req(0, 3), req(1, 2), req(3, 0)}, false},
	} {
		if msg := replay(ops, c.calls); c.panics != (msg != "") || c.panics && !strings.Contains(msg, rule) {
			t.Errorf("%s: recovered %q; want a panic naming the rule: %v", c.name, msg, c.panics)
		}
	}
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 100; trial++ {
		ops, calls := randomDAG(rng, 2+rng.Intn(40))
		shuffled := shuffledKeepingPerOpOrder(rng, calls)
		last, outOfOrder := [2]OpID{}, false
		for _, c := range shuffled {
			k := 0
			if c.start {
				k = 1
			}
			outOfOrder = outOfOrder || len(c.deps) > 0 && c.op < last[k]
			if len(c.deps) > 0 {
				last[k] = c.op
			}
		}
		if msg := replay(ops, shuffled); outOfOrder != (msg != "") || outOfOrder && !strings.Contains(msg, rule) {
			t.Fatalf("trial %d: recovered %q; out of order: %v", trial, msg, outOfOrder)
		}
		if msg := replay(ops, calls); msg != "" {
			t.Fatalf("trial %d: calls in op order panicked: %s", trial, msg)
		}
	}
}

// TestParseTextSortsDependencyLines: the text format lets a rank block
// give its dependency lines in any order and anywhere among its op lines.
// A random schedule's WriteText, with each block's dependency lines
// shuffled (each op's lines of one kind keeping their order, which fixes
// its list) and scattered among the op lines, parses to the same binary
// encoding.
func TestParseTextSortsDependencyLines(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 50; trial++ {
		b := NewBuilder(1 + rng.Intn(3))
		for r := range b.NumRanks() {
			ops, calls := randomDAG(rng, 1+rng.Intn(60))
			rb := b.Rank(r)
			for _, op := range ops {
				rb.add(op)
			}
			for _, c := range calls {
				if c.start {
					rb.IRequires(c.op, c.deps...)
				} else {
					rb.Requires(c.op, c.deps...)
				}
			}
		}
		s := b.Build()
		var text bytes.Buffer
		if err := WriteText(&text, s); err != nil {
			t.Fatal(err)
		}
		var shuffled strings.Builder
		var opLines, depLines []string
		for _, line := range strings.SplitAfter(text.String(), "\n") {
			switch f := strings.Fields(line); {
			case len(f) == 3 && (f[1] == "requires" || f[1] == "irequires"):
				depLines = append(depLines, line)
			case len(f) > 0 && strings.HasSuffix(f[0], ":"):
				opLines = append(opLines, line)
			case len(f) == 1 && f[0] == "}":
				shuffled.WriteString(scatter(rng, opLines, shuffledLines(rng, depLines)))
				opLines, depLines = opLines[:0], depLines[:0]
				fallthrough
			default:
				shuffled.WriteString(line)
			}
		}
		got, err := ParseText(strings.NewReader(shuffled.String()))
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, shuffled.String())
		}
		if !bytes.Equal(binarySeed(got), binarySeed(s)) {
			t.Fatalf("trial %d: the shuffled text encodes otherwise:\n%s", trial, shuffled.String())
		}
	}
}

// shuffledLines reorders a block's dependency lines arbitrarily except
// that the lines of one op and kind keep their relative order.
func shuffledLines(rng *rand.Rand, lines []string) []string {
	calls := make([]depCall, len(lines))
	for i, line := range lines {
		f := strings.Fields(line)
		op, _ := strconv.Atoi(strings.TrimPrefix(f[0], "l"))
		calls[i] = depCall{start: f[1] == "irequires", op: OpID(op), deps: []OpID{OpID(i)}}
	}
	out := make([]string, 0, len(lines))
	for _, c := range shuffledKeepingPerOpOrder(rng, calls) {
		out = append(out, lines[c.deps[0]])
	}
	return out
}

// scatter merges two line lists at random, each keeping its order.
func scatter(rng *rand.Rand, a, b []string) string {
	var out strings.Builder
	for len(a)+len(b) > 0 {
		if len(b) == 0 || len(a) > 0 && rng.Intn(2) == 0 {
			out.WriteString(a[0])
			a = a[1:]
		} else {
			out.WriteString(b[0])
			b = b[1:]
		}
	}
	return out.String()
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
	if n := s.Ranks[1].Len(); n != 2 {
		t.Fatalf("schedule has %d ops after the spent builder was poked, want 2", n)
	}
}

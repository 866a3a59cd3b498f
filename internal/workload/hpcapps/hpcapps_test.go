package hpcapps

import (
	"sort"
	"testing"
	"testing/quick"

	"atlahs/internal/backend"
	"atlahs/internal/engine"
	"atlahs/internal/sched"
	"atlahs/internal/trace/schedgen"
	"atlahs/internal/xrand"
)

func TestAllAppsGenerateAndSimulate(t *testing.T) {
	for _, app := range []App{HPCG, LULESH, LAMMPS, ICON, OpenMX, CloverLeaf} {
		t.Run(string(app), func(t *testing.T) {
			tr, err := Generate(Config{App: app, Ranks: 16, Steps: 3, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			s, err := schedgen.Generate(tr, schedgen.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.CheckMatched(); err != nil {
				t.Fatal(err)
			}
			res, err := sched.Run(engine.New(), s, backend.NewLGS(backend.HPCParams()), sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Runtime <= 0 {
				t.Fatal("zero runtime")
			}
		})
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{App: HPCG, Ranks: 1}); err == nil {
		t.Fatal("single rank accepted")
	}
	if _, err := Generate(Config{App: App("nope"), Ranks: 4}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestDecompose(t *testing.T) {
	cases := []struct {
		n, dims int
	}{
		{128, 3}, {512, 3}, {1024, 3}, {432, 3}, {27, 3}, {8, 2}, {12, 2}, {7, 3},
	}
	for _, c := range cases {
		grid := decompose(c.n, c.dims)
		if len(grid) != c.dims {
			t.Fatalf("decompose(%d,%d) dims=%v", c.n, c.dims, grid)
		}
		prod := 1
		for _, g := range grid {
			prod *= g
		}
		if prod != c.n {
			t.Fatalf("decompose(%d,%d)=%v product %d", c.n, c.dims, grid, prod)
		}
		// balanced: max/min ratio sane for composite numbers
		if c.n == 128 && grid[0] > 8*grid[2] {
			t.Fatalf("unbalanced decomposition %v", grid)
		}
	}
}

func TestNeighbourSymmetryProperty(t *testing.T) {
	// if a is a neighbour of b then b is a neighbour of a
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := []int{8, 12, 16, 27, 64}[rng.Intn(5)]
		grid := decompose(n, 3)
		corners := rng.Bool(0.5)
		for r := 0; r < n; r++ {
			for _, nb := range neighbours(r, grid, corners) {
				back := neighbours(nb, grid, corners)
				i := sort.SearchInts(back, r)
				if i >= len(back) || back[i] != r {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNeighbourCounts(t *testing.T) {
	// 4x4x4 grid: axis neighbours = 6, with corners = 26
	grid := []int{4, 4, 4}
	if got := len(neighbours(21, grid, false)); got != 6 {
		t.Fatalf("axis neighbours = %d, want 6", got)
	}
	if got := len(neighbours(21, grid, true)); got != 26 {
		t.Fatalf("corner neighbours = %d, want 26", got)
	}
	// 4x4 2D grid (decomposed as [4,4,1])
	grid2 := []int{4, 4, 1}
	if got := len(neighbours(5, grid2, false)); got != 4 {
		t.Fatalf("2D axis neighbours = %d, want 4", got)
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := Generate(Config{App: LULESH, Ranks: 8, Steps: 2, Seed: 42})
	b, _ := Generate(Config{App: LULESH, Ranks: 8, Steps: 2, Seed: 42})
	if len(a.Events[0]) != len(b.Events[0]) {
		t.Fatal("not deterministic")
	}
	for i := range a.Events[0] {
		if a.Events[0][i] != b.Events[0][i] {
			t.Fatal("event mismatch for same seed")
		}
	}
}

func TestScaleBytes(t *testing.T) {
	big, _ := Generate(Config{App: CloverLeaf, Ranks: 8, Steps: 2, Seed: 1, ScaleBytes: 1})
	small, _ := Generate(Config{App: CloverLeaf, Ranks: 8, Steps: 2, Seed: 1, ScaleBytes: 0.25})
	var bigBytes, smallBytes int64
	for _, ev := range big.Events[0] {
		bigBytes += ev.Bytes
	}
	for _, ev := range small.Events[0] {
		smallBytes += ev.Bytes
	}
	if smallBytes >= bigBytes {
		t.Fatalf("scaling failed: %d vs %d", smallBytes, bigBytes)
	}
}

func TestWeakScalingMoreRanksMoreEvents(t *testing.T) {
	small, _ := Generate(Config{App: HPCG, Ranks: 8, Steps: 2, Seed: 1})
	large, _ := Generate(Config{App: HPCG, Ranks: 64, Steps: 2, Seed: 1})
	sc, lc := 0, 0
	for _, evs := range small.Events {
		sc += len(evs)
	}
	for _, evs := range large.Events {
		lc += len(evs)
	}
	if lc <= sc {
		t.Fatalf("64-rank trace not larger: %d vs %d events", lc, sc)
	}
}

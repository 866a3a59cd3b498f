package micro

import (
	"reflect"
	"testing"
	"testing/quick"

	"atlahs/internal/backend"
	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/sched"
)

func runsOnLGS(t *testing.T, s *goal.Schedule) {
	t.Helper()
	if err := s.CheckMatched(); err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(engine.New(), s, backend.NewLGS(backend.AIParams()), sched.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestIncast(t *testing.T) {
	s := Incast(9, 8, 1<<20)
	st := s.ComputeStats()
	if st.Sends != 8 || st.Recvs != 8 {
		t.Fatalf("stats %+v", st)
	}
	// all messages target rank 0
	for r := 1; r < 9; r++ {
		for i := range s.Ranks[r].Len() {
			if op := s.Ranks[r].Op(i); op.Kind() == goal.KindSend && op.Peer() != 0 {
				t.Fatal("incast send not to rank 0")
			}
		}
	}
	runsOnLGS(t, s)
	// fanin clamps
	if st := Incast(4, 10, 8).ComputeStats(); st.Sends != 3 {
		t.Fatalf("fanin not clamped: %+v", st)
	}
}

func TestPermutationIsDerangement(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n%30) + 2
		s := Permutation(m, 4096, seed)
		if s.CheckMatched() != nil {
			return false
		}
		st := s.ComputeStats()
		if st.Sends != int64(m) || st.Recvs != int64(m) {
			return false
		}
		// each rank sends exactly once, never to itself (validated by
		// goal.Validate inside MustBuild), and each rank receives once
		for r := 0; r < m; r++ {
			sends, recvs := 0, 0
			for i := range s.Ranks[r].Len() {
				switch s.Ranks[r].Op(i).Kind() {
				case goal.KindSend:
					sends++
				case goal.KindRecv:
					recvs++
				}
			}
			if sends != 1 || recvs != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationDeterministic(t *testing.T) {
	a := Permutation(16, 100, 7)
	b := Permutation(16, 100, 7)
	for r := range a.Ranks {
		if a.Ranks[r].Op(0).Peer() != b.Ranks[r].Op(0).Peer() {
			t.Fatal("permutation not deterministic")
		}
	}
}

func TestRing(t *testing.T) {
	s := Ring(6, 512)
	runsOnLGS(t, s)
	if st := s.ComputeStats(); st.Sends != 6 || st.SendBytes != 6*512 {
		t.Fatalf("stats %+v", st)
	}
}

func TestAllToAll(t *testing.T) {
	s := AllToAll(5, 256)
	runsOnLGS(t, s)
	if st := s.ComputeStats(); st.Sends != 20 {
		t.Fatalf("sends=%d, want 20", st.Sends)
	}
}

func TestUniformRandom(t *testing.T) {
	s := UniformRandom(8, 50, 4096, 3)
	runsOnLGS(t, s)
	if st := s.ComputeStats(); st.Sends != 50 {
		t.Fatalf("sends=%d", st.Sends)
	}
}

// TestGeneratorsBuildAtFinalSize: every rank a generator builds holds its
// ops in one array (short words, index and side words) with no spare
// capacity.
func TestGeneratorsBuildAtFinalSize(t *testing.T) {
	for _, n := range []int{2, 5, 16} {
		for name, s := range map[string]*goal.Schedule{
			"incast":      Incast(n, n-1, 64),
			"incast/1":    Incast(n, 1, 64),
			"permutation": Permutation(n, 64, 3),
			"ring":        Ring(n, 64),
			"alltoall":    AllToAll(n, 64),
			"uniform/1":   UniformRandom(n, 1, 64, 2),
			"uniform/100": UniformRandom(n, 100, 64, 2),
			"bsp/1":       BulkSynchronous(n, 1, 64, 1000),
			"bsp/4":       BulkSynchronous(n, 4, 64, 1000),
		} {
			for r := range s.Ranks {
				// the rank's one array, unexported
				if ops := reflect.ValueOf(&s.Ranks[r]).Elem().FieldByName("ops"); ops.Cap() != ops.Len() {
					t.Errorf("%s n=%d: rank %d holds %d ops in an array of len %d, cap %d", name, n, r, s.Ranks[r].Len(), ops.Len(), ops.Cap())
				}
			}
		}
	}
}

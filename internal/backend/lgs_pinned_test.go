package backend

import (
	"fmt"
	"hash/fnv"
	"testing"

	"atlahs/internal/engine"
	"atlahs/internal/goal"
	"atlahs/internal/sched"
	"atlahs/internal/simtime"
	"atlahs/internal/workload/micro"
)

// lgsOutcome is everything a run on the LGS backend lets the rest of
// ATLAHS observe: the makespan, the number of engine events and every
// rank's completion time (as a digest).
type lgsOutcome struct {
	runtime simtime.Duration
	events  uint64
	rankEnd uint64 // FNV-1a over RankEnd, 8 little-endian bytes per rank
}

func outcomeOf(res *sched.Result) lgsOutcome {
	h := fnv.New64a()
	var b [8]byte
	for _, t := range res.RankEnd {
		for i := range b {
			b[i] = byte(uint64(t) >> (8 * i))
		}
		h.Write(b[:])
	}
	return lgsOutcome{res.Runtime, res.Events, h.Sum64()}
}

// rendezvousBytes is at the HPC parameters' threshold S: rendezvous.
const rendezvousBytes = 256000

// zeroLatency is the HPC model with L = 0: no lookahead, so serial only.
func zeroLatency() LogGOPS {
	p := HPCParams()
	p.L = 0
	return p
}

// pinnedSchedules are the message shapes the pinned table covers. Each is
// small enough to check by hand against the model's closed forms (the
// exact-ping tests do) and together they pass through every event LGS
// schedules: completions on a stream and on the NIC, eager arrival, RTS,
// CTS and rendezvous data, matched on arrival and matched on post.
func pinnedSchedules() map[string]*goal.Schedule {
	pair := func(fill func(src, dst *goal.RankBuilder)) *goal.Schedule {
		b := goal.NewBuilder(2)
		fill(b.Rank(0), b.Rank(1))
		return b.MustBuild()
	}
	return map[string]*goal.Schedule{
		"eager-ping":      pingSchedule(8),
		"rendezvous-ping": pingSchedule(rendezvousBytes),
		// Both protocols on one (src, dst, tag): the matcher must hand the
		// first receive to the first message whichever protocol carries it,
		// and the NIC serialises the eager payload with the rendezvous data.
		"eager-then-rendezvous": pair(func(src, dst *goal.RankBuilder) {
			first := src.Send(1000, 1, 0)
			src.Requires(src.Send(rendezvousBytes, 1, 0), first)
			first = dst.Recv(1000, 0, 0)
			dst.Requires(dst.Recv(rendezvousBytes, 0, 0), first)
		}),
		"rendezvous-then-eager": pair(func(src, dst *goal.RankBuilder) {
			first := src.Send(rendezvousBytes, 1, 0)
			src.Requires(src.Send(1000, 1, 0), first)
			first = dst.Recv(rendezvousBytes, 0, 0)
			dst.Requires(dst.Recv(1000, 0, 0), first)
		}),
		// A wildcard receive posted between two exact ones.
		"wildcard-recv": pair(func(src, dst *goal.RankBuilder) {
			src.Send(64, 1, 41)
			src.Send(rendezvousBytes, 1, 42)
			src.Send(64, 1, 43)
			dst.Recv(64, 0, 43)
			dst.Recv(rendezvousBytes, 0, goal.AnyTag)
			dst.Recv(64, 0, 42)
		}),
		// Two streams on either side: overheads overlap across streams and
		// serialise within one, the NIC serialises all four payloads.
		"two-streams": pair(func(src, dst *goal.RankBuilder) {
			src.SendOn(100000, 1, 0, 0)
			src.SendOn(rendezvousBytes, 1, 1, 1)
			src.CalcOn(20000, 1)
			src.SendOn(300, 1, 2, 0)
			src.RecvOn(5000, 1, 9, 1)
			dst.RecvOn(100000, 0, 0, 1)
			dst.CalcOn(50000, 0)
			dst.RecvOn(rendezvousBytes, 0, 1, 0)
			dst.RecvOn(300, 0, 2, 1)
			dst.SendOn(5000, 0, 9, 0)
		}),
		// The receive is posted long after its message arrived (unexpected
		// message, eager and RTS) ...
		"recv-after-message": pair(func(src, dst *goal.RankBuilder) {
			src.Send(512, 1, 0)
			src.Send(rendezvousBytes, 1, 1)
			late := dst.Calc(200000)
			dst.Requires(dst.Recv(512, 0, 0), late)
			dst.Requires(dst.Recv(rendezvousBytes, 0, 1), late)
		}),
		// ... and long before it was sent.
		"recv-before-message": pair(func(src, dst *goal.RankBuilder) {
			late := src.Calc(200000)
			src.Requires(src.Send(512, 1, 0), late)
			src.Requires(src.Send(rendezvousBytes, 1, 1), late)
			dst.Recv(512, 0, 0)
			dst.Recv(rendezvousBytes, 0, 1)
		}),
		"uniform-random-64":            micro.UniformRandom(64, 2000, 8192, 11),
		"uniform-random-64-rendezvous": micro.UniformRandom(64, 1000, 300_000, 12),
	}
}

// TestLGSOutcomesPinned holds LGS to outcomes recorded at commit a959d9a,
// before its streams and NICs became event sources and its messages
// recycled records: the same Schedule/ScheduleOn calls must be made in the
// same order with the same times, so every number is equal, not close, on
// the serial engine and on the lane engine at any worker count.
func TestLGSOutcomesPinned(t *testing.T) {
	schedules := pinnedSchedules()
	pinned := []struct {
		schedule string
		params   func() LogGOPS
		want     lgsOutcome
	}{
		{"eager-ping", AIParams, lgsOutcome{4100320, 3, 5998813891239278723}},
		{"eager-ping", HPCParams, lgsOutcome{15001440, 3, 12216290848862270540}},
		{"rendezvous-ping", HPCParams, lgsOutcome{67080000, 5, 12348499332208219600}},
		{"eager-then-rendezvous", HPCParams, lgsOutcome{73260000, 8, 11723401776025691925}},
		{"rendezvous-then-eager", HPCParams, lgsOutcome{73260000, 8, 17822274391284274077}},
		{"wildcard-recv", HPCParams, lgsOutcome{73091520, 11, 8772313550393360858}},
		{"two-streams", AIParams, lgsOutcome{54300000, 14, 12363537727587368262}},
		{"two-streams", HPCParams, lgsOutcome{79134000, 16, 11742163713374672755}},
		{"recv-after-message", HPCParams, lgsOutcome{258080000, 9, 14495418212707916624}},
		{"recv-before-message", HPCParams, lgsOutcome{273080000, 9, 10003695598083512467}},
		{"two-streams", zeroLatency, lgsOutcome{76134000, 16, 7653234694640460484}},
		{"wildcard-recv", zeroLatency, lgsOutcome{70091520, 11, 3764078367886432478}},
		{"uniform-random-64", AIParams, lgsOutcome{253032680, 8000, 14699639155155148756}},
		{"uniform-random-64-rendezvous", HPCParams, lgsOutcome{1714155000, 6000, 7800330217289582611}},
	}
	for i, c := range pinned {
		s, p := schedules[c.schedule], c.params()
		name := fmt.Sprintf("%s/L=%v,S=%d", c.schedule, p.L, p.S)
		t.Run(name, func(t *testing.T) {
			engines := map[string]engine.Sim{"serial": engine.New()}
			if p.L > 0 {
				for _, w := range []int{1, 2, 4} {
					engines[fmt.Sprintf("workers=%d", w)] = engine.NewParallel(s.NumRanks(), w, p.L)
				}
			}
			for label, eng := range engines {
				b := NewLGS(p)
				res, err := sched.Run(eng, s, b, sched.Options{})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := outcomeOf(res); got != c.want {
					t.Errorf("%s: outcome moved (row %d):\n got  %+v\n want %+v", label, i, got, c.want)
				}
				checkLGSDrained(t, b)
			}
		})
	}
}

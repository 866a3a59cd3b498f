package fluid

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"atlahs/internal/engine"
	"atlahs/internal/simtime"
	"atlahs/internal/xrand"
)

// fluidOutcome is everything a run of the fluid model lets the rest of
// ATLAHS observe: when each message was delivered, when the run ended and
// how many messages completed.
type fluidOutcome struct {
	deliveries string // SHA-256 of every delivery time, in send order
	end        simtime.Time
	completed  uint64
	events     uint64 // engine events, stale wakes included
}

// pinnedFabric is one fat tree of the pinned table.
type pinnedFabric struct {
	name                 string
	hosts, perTor, cores int
}

var pinnedFabrics = []pinnedFabric{
	{"16h-4tor-4core", 16, 4, 4},
	{"16h-8:1", 16, 8, 1},
	{"64h-16:1", 64, 16, 1},
}

// pinnedPatterns inject traffic on a fabric of h hosts through send,
// which takes the time the message starts.
var pinnedPatterns = []struct {
	name string
	run  func(h int, send func(at simtime.Time, src, dst int, size int64))
}{
	// every host sends to the host half the fabric away, in two waves
	{"permutation", func(h int, send func(simtime.Time, int, int, int64)) {
		for w := 0; w < 2; w++ {
			at := simtime.Time(w) * simtime.Time(30*simtime.Microsecond)
			for src := 0; src < h; src++ {
				send(at, src, (src+h/2+w)%h, 1<<20-int64(97*src))
			}
		}
	}},
	// every other host sends to host 0
	{"incast", func(h int, send func(simtime.Time, int, int, int64)) {
		for src := 1; src < h; src++ {
			send(0, src, 0, 256<<10+int64(src))
		}
	}},
	// sixteen hosts spread over the fabric all send to each other at once
	{"alltoall", func(h int, send func(simtime.Time, int, int, int64)) {
		stride := h / 16
		for i := 0; i < 16; i++ {
			for j := 0; j < 16; j++ {
				if i != j {
					send(0, i*stride, j*stride, 64<<10+int64(i*16+j))
				}
			}
		}
	}},
	// random pairs start over 200 µs with sizes from 1 B to 1 MiB
	{"staggered", func(h int, send func(simtime.Time, int, int, int64)) {
		rng := xrand.New(11)
		for i := 0; i < 160; i++ {
			src := rng.Intn(h)
			dst := rng.Intn(h - 1)
			if dst >= src {
				dst++
			}
			var size int64
			switch i % 4 {
			case 0:
				size = 1
			case 1:
				size = 1 << 20
			default:
				size = 1 + rng.Int63n(1<<20)
			}
			send(simtime.Time(rng.Int63n(int64(200*simtime.Microsecond))), src, dst, size)
		}
	}},
}

// pinnedConfigs are the network settings each case runs under: a bare
// fabric, and one with a per-message overhead and jitter.
var pinnedConfigs = []struct {
	name string
	cfg  Config
}{
	{"plain", Config{}},
	{"noisy", Config{Overhead: 500 * simtime.Nanosecond, JitterFrac: 0.03, Seed: 7}},
}

// pinnedFluidRun runs one case of the pinned table.
func pinnedFluidRun(t testing.TB, fab pinnedFabric, pattern, cfgIdx int) (fluidOutcome, *Network) {
	cfg := pinnedConfigs[cfgIdx].cfg
	cfg.Topo = testTopo(t, fab.hosts, fab.perTor, fab.cores)
	eng := engine.New()
	n, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var at []simtime.Time
	pinnedPatterns[pattern].run(fab.hosts, func(start simtime.Time, src, dst int, size int64) {
		i := len(at)
		at = append(at, -1)
		eng.Schedule(start, func() {
			n.Send(src, dst, size, func(t simtime.Time) { at[i] = t })
		})
	})
	eng.Run()
	h := sha256.New()
	var b [8]byte
	for _, t := range at {
		binary.LittleEndian.PutUint64(b[:], uint64(t))
		h.Write(b[:])
	}
	return fluidOutcome{
		deliveries: hex.EncodeToString(h.Sum(nil)),
		end:        eng.Now(),
		completed:  n.MsgsCompleted,
		events:     eng.Processed,
	}, n
}

// TestFluidOutcomesPinned holds the fluid model to outcomes recorded at
// commit 636aba8, before progressive filling walked only live links: the
// same flows must get the same rates to the bit, so every delivery time is
// equal, not close.
func TestFluidOutcomesPinned(t *testing.T) {
	pinned := map[string]fluidOutcome{
		"16h-4tor-4core/permutation/plain": {"7877867514a625fc06cb98687781a9cdcf3a4297969b9c2eea236913b2044ad3", 169686800, 32, 127},
		"16h-4tor-4core/permutation/noisy": {"a97bd01251d7811b2e21831418c535c73b7c31b2c51b6def6f69a12cca21a3c8", 171349707, 32, 127},
		"16h-4tor-4core/incast/plain":      {"9c5c751d25e96f605957dd5c12fe89002ec8b01a042d08612b435aeffa2bdee7", 159291200, 15, 59},
		"16h-4tor-4core/incast/noisy":      {"d5920047a01a963ea94c71b13086003f4a9ab11876743803421a0a67b7289a17", 160095504, 15, 59},
		"16h-4tor-4core/alltoall/plain":    {"2b37ddae3f0b90585f891012d911fb5fdde22103989f2a8a756125281ce2ea2b", 44050121, 240, 927},
		"16h-4tor-4core/alltoall/noisy":    {"248f8a807dc63e7a082600e8d75a3a91f9d7ec1521524c11e1c40886f9e9f838", 44620365, 240, 927},
		"16h-4tor-4core/staggered/plain":   {"95774e67b76baa7ed1c2537d386b1ab0e48d7b57902537712951aaa16c877a54", 501514795, 160, 639},
		"16h-4tor-4core/staggered/noisy":   {"32d233e4aa27e2c325ff29266c2701cdb994f0c625cfccce3bb2c2a3c6adc90d", 503011113, 160, 639},
		"16h-8:1/permutation/plain":        {"3ce2ea3baa16c532e5e53ba5a7e6b004ac220249066e2d101448f73ad0b70079", 630955480, 32, 127},
		"16h-8:1/permutation/noisy":        {"436b2dd2e952a9608236ce78a7c9d71e18a3a80badeb0f7fe1734ecb0149df23", 632560187, 32, 127},
		"16h-8:1/incast/plain":             {"e3754c9f3144502597fb6ffb8f12c1337156403857388d93ddc7d05500e74560", 159291200, 15, 59},
		"16h-8:1/incast/noisy":             {"222bb40c7632eae23370c5942c03e2a220a6ca0e16ce5617ce9b8c6d098f496d", 160095504, 15, 59},
		"16h-8:1/alltoall/plain":           {"d06a0bc50cfb312d7674a16c0e574474ff5a39d4268dc2e09958be17ec5ecccc", 170252160, 240, 959},
		"16h-8:1/alltoall/noisy":           {"5b2c1ab13395f709feae8e6653a4f0d5c5c79c2b3453c65fb7ea9847c9f10b45", 170828269, 240, 959},
		"16h-8:1/staggered/plain":          {"85ea551692a759fbdcb36c3781a259070686ba199cf96af0dfd2b254aa88b4c8", 1020058747, 160, 639},
		"16h-8:1/staggered/noisy":          {"bed876043199807cd7044e41ebeb5dd41aa4f6ebd965bb3df268fbe34ceb0a9e", 1020761712, 160, 639},
		"64h-16:1/permutation/plain":       {"ed9be701626c4bbdd0b7e160ec35175318e814b88a4c0be485ac6fe53172c3d2", 1343246080, 128, 511},
		"64h-16:1/permutation/noisy":       {"6f8f90ace136c644f8e453b23404012da2a5360a59d60dec27ca26e0cb62283e", 1344892921, 128, 511},
		"64h-16:1/incast/plain":            {"9fa93161df5294ccefd2e920d09be5c73942a4dcb680eb9b7bedb90c90fbb401", 662683520, 63, 251},
		"64h-16:1/incast/noisy":            {"e6e0ebbea242122e9c33221368d439b1dce1c4280644de33df254d0c47eca0e4", 663485621, 63, 251},
		"64h-16:1/alltoall/plain":          {"946f5ef68aeb0be00e0ce0ea522718b2faf2c29509d935ca6235a4a15042afda", 128254400, 240, 953},
		"64h-16:1/alltoall/noisy":          {"573cce7e25a64d7cdb8af683e459cbb9ee3a115b59429e4720d09b657fc5be7e", 128829149, 240, 953},
		"64h-16:1/staggered/plain":         {"7f5db0fdbee4afb175f9cf5ec4d51a596ce3c9563e67be83e04859576fe450aa", 931912947, 160, 639},
		"64h-16:1/staggered/noisy":         {"77ece49919edecbc5760ef3bd0f308617fff1a5f39d8b219896e53b837d261ef", 932734060, 160, 639},
	}
	for _, fab := range pinnedFabrics {
		for p := range pinnedPatterns {
			for c := range pinnedConfigs {
				name := fab.name + "/" + pinnedPatterns[p].name + "/" + pinnedConfigs[c].name
				t.Run(name, func(t *testing.T) {
					got, n := pinnedFluidRun(t, fab, p, c)
					if err := n.Drained(); err != nil {
						t.Error(err)
					}
					want, ok := pinned[name]
					if !ok {
						t.Errorf("no pin: %q: {%q, %d, %d, %d},", name, got.deliveries, got.end, got.completed, got.events)
						return
					}
					if got != want {
						t.Errorf("outcome moved:\n got  %+v\n want %+v", got, want)
					}
				})
			}
		}
	}
}

package collective

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"atlahs/internal/goal"
)

// decomposeAll decomposes one collective for every member of the group,
// position after position, and returns each member's exit. entry[i], when
// entry is not nil, is member i's entry op.
func decomposeAll(b *goal.Builder, kind Kind, algo Algo, ranks []int, root int, bytes int64, opt Options, entry []goal.OpID) ([]goal.OpID, error) {
	exits := make([]goal.OpID, len(ranks))
	for i, r := range ranks {
		e := goal.OpID(-1)
		if entry != nil {
			e = entry[i]
		}
		var err error
		if exits[i], err = Decompose(b.Rank(r), kind, algo, ranks, i, root, bytes, opt, e); err != nil {
			return nil, err
		}
	}
	return exits, nil
}

// pinnedAlgos lists every (kind, algorithm) pair Decompose accepts; the
// kinds that ignore the algorithm appear once, with Auto.
var pinnedAlgos = []struct {
	kind Kind
	algo Algo
}{
	{Allreduce, Auto}, {Allreduce, Ring}, {Allreduce, RecDoubling},
	{Bcast, Auto}, {Bcast, Ring}, {Bcast, Binomial},
	{Allgather, Auto}, {Allgather, Ring},
	{ReduceScatter, Auto}, {ReduceScatter, Ring},
	{Alltoall, Auto}, {Alltoall, Pairwise},
	{Barrier, Auto},
	{Reduce, Auto}, {Reduce, Binomial},
	{Gather, Auto},
	{Scatter, Auto},
}

// pinnedDecompose holds, per (kind, algorithm), the SHA-256 of the binary
// GOAL encodings of the whole grid TestDecomposePinned walks, concatenated
// in walk order.
var pinnedDecompose = map[string]string{
	"allreduce/auto":        "dd2e4aebe6d53b2ee03a5dac9bd2fc375a7d4f61369fc17abbfea25d0bf17711",
	"allreduce/ring":        "ed38453a87534b5997f55a0cc087c7dc4fd260aed0ae77bc5284138ac68435a6",
	"allreduce/recdoubling": "a5cd63114d94585533a20122893f79ef78a0b0b314d446e2c7c35fa448c54273",
	"bcast/auto":            "81e754748724a824a1fc785a786b1d40a1a3b71c3207a03e37ff4b702d274d94",
	"bcast/ring":            "6f65d4315574c4af507aa89014eafa52a185a641c779536497522aa6ff12430a",
	"bcast/binomial":        "81e754748724a824a1fc785a786b1d40a1a3b71c3207a03e37ff4b702d274d94",
	"allgather/auto":        "065ea739bfe9ccbb4f5817809813d8c2f21e56640d7aa51859dae5e87fdb32bb",
	"allgather/ring":        "065ea739bfe9ccbb4f5817809813d8c2f21e56640d7aa51859dae5e87fdb32bb",
	"reducescatter/auto":    "7304a4c8f43c54beadaa56128cad1ad0c38b2e69a256345c33d191eb1d2f650d",
	"reducescatter/ring":    "7304a4c8f43c54beadaa56128cad1ad0c38b2e69a256345c33d191eb1d2f650d",
	"alltoall/auto":         "ca2f9aa578bf9ce6c0ab8cb482ff09c452bf6fae62976b8c5d2990de015bf33f",
	"alltoall/pairwise":     "ca2f9aa578bf9ce6c0ab8cb482ff09c452bf6fae62976b8c5d2990de015bf33f",
	"barrier/auto":          "5c48da9e3540b3a9d6a5b9e11b11f236d673a878ff9822385b3c61a9be6d7317",
	"reduce/auto":           "1c12ac9766eccfa460522358cc297b2aa672ea0c9472f697dcf044b8b8a9da2e",
	"reduce/binomial":       "1c12ac9766eccfa460522358cc297b2aa672ea0c9472f697dcf044b8b8a9da2e",
	"gather/auto":           "36575bbc768c95d462e712bd1a7785ed89b2652b6d339db236956340633e83db",
	"scatter/auto":          "a08f35b14e077a18dd3d002f6cab4bb12a12bcb46f2dc76374cf2a9feb075609",
}

// TestDecomposePinned pins what every collective decomposes into, op for
// op and edge for edge, over a grid of group sizes, roots, channel counts,
// protocols, chunk sizes, reduction costs and payloads — each once on its
// own and once behind an entry op per member, on per-channel streams and
// at a non-zero tag base, which is how the NCCL pipeline calls it.
func TestDecomposePinned(t *testing.T) {
	for _, ka := range pinnedAlgos {
		name := fmt.Sprintf("%v/%v", ka.kind, ka.algo)
		h := sha256.New()
		for _, n := range []int{1, 2, 3, 5, 8} {
			for _, root := range []int{0, n - 1} {
				for _, ch := range []int{1, 3} {
					for _, proto := range []Protocol{Simple, LL} {
						for _, chunk := range []int64{0, 4096} {
							for _, red := range []float64{0, 0.01} {
								for _, bytes := range []int64{0, 1000, 16 << 10, 1<<20 + 3} {
									for _, withEntry := range []bool{false, true} {
										opt := Options{Channels: ch, Protocol: proto, ChunkBytes: chunk, ReduceNsPerByte: red}
										b := goal.NewBuilder(n)
										var entry []goal.OpID
										if withEntry {
											opt.CPU, opt.ChannelStreams, opt.TagBase = 2, true, TagSpan
											entry = make([]goal.OpID, n)
											for i := range entry {
												entry[i] = b.Rank(i).Calc(int64(i))
											}
										}
										if _, err := decomposeAll(b, ka.kind, ka.algo, group(n), root, bytes, opt, entry); err != nil {
											t.Fatalf("%s n=%d: %v", name, n, err)
										}
										if err := goal.WriteBinary(h, b.Build()); err != nil {
											t.Fatal(err)
										}
									}
								}
							}
						}
					}
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != pinnedDecompose[name] {
			t.Errorf("%s: sha256 %s; pinned %s", name, got, pinnedDecompose[name])
		}
	}
}

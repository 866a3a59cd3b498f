package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"atlahs/internal/goal"
	"atlahs/internal/workload/hpcapps"
	"atlahs/internal/workload/llm"
	"atlahs/internal/workload/oltp"
)

// convertCase is one named input of a trace frontend. pinnedConversions
// holds what the code made of it when the case was added.
type convertCase struct {
	name, frontend string
	raw            []byte
	cfg            any
}

func traceBytes(t testing.TB, w io.WriterTo, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Small generated fixtures of the four trace formats (what cmd/tracegen
// writes), shared by the pinned table and the convert fuzzers' corpora.
func nsysFixture(t testing.TB, seed uint64) []byte {
	rep, err := llm.Generate(llm.Config{Model: llm.Llama7B(), Par: llm.Parallelism{TP: 2, PP: 2, DP: 2, EP: 1, GlobalBatch: 8}, Scale: 1e-4, Seed: seed})
	return traceBytes(t, rep, err)
}

func mpiFixture(t testing.TB, seed uint64) []byte {
	tr, err := hpcapps.Generate(hpcapps.Config{App: hpcapps.LULESH, Ranks: 8, Steps: 2, Seed: seed})
	return traceBytes(t, tr, err)
}

func spcFixture(t testing.TB, seed uint64) []byte {
	return traceBytes(t, oltp.GenerateFinancial(oltp.FinancialConfig{Ops: 80, Seed: seed}), nil)
}

func chakraLLMFixture(t testing.TB, seed uint64) []byte {
	tr, err := llm.GenerateChakra(llm.Config{Model: llm.Llama7B(), Par: llm.Parallelism{TP: 1, PP: 1, DP: 4, EP: 1, GlobalBatch: 8}, Scale: 1e-4, Seed: seed})
	return traceBytes(t, tr, err)
}

const (
	nsysHdr   = `{"format":"atlahs-nsys-v1","ngpus":2,"comms":{"c":[0,1]}}` + "\n"
	nsysK0    = `{"gpu":0,"stream":0,"kind":"kernel","name":"k","start_ns":0,"end_ns":10}` + "\n"
	nsysAR0   = `{"gpu":0,"stream":1,"kind":"nccl","start_ns":10,"end_ns":20,"coll":"allreduce","bytes":4096,"comm":"c"}` + "\n"
	nsysAR1   = `{"gpu":1,"stream":1,"kind":"nccl","start_ns":12,"end_ns":22,"coll":"allreduce","bytes":4096,"comm":"c"}` + "\n"
	mpiHdr    = "mpitrace nranks 2\n"
	mpiR0     = "rank 0 {\nMPI_Init t=0:10\nMPI_Send dst=1 bytes=64 tag=3 t=20:30\nMPI_Allreduce bytes=128 t=40:50\n}\n"
	mpiR1     = "rank 1 {\nMPI_Init t=0:10\nMPI_Recv src=0 bytes=64 tag=3 t=20:35\nMPI_Allreduce bytes=128 t=40:50\n}\n"
	chakraHdr = `{"format":"atlahs-chakra-et-v1","nranks":2}` + "\n"
	chakraR0  = `{"rank":0,"nodes":[{"id":0,"name":"f","type":"COMP_NODE","ctrl_deps":null,"data_deps":null,"attrs":[{"name":"runtime","int64_val":100}]},{"id":1,"name":"ALL_REDUCE","type":"COMM_COLL_NODE","ctrl_deps":[0],"data_deps":null,"attrs":[{"name":"comm_type","string_val":"ALL_REDUCE"},{"name":"comm_size","int64_val":4096}]}]}` + "\n"
	chakraR1  = `{"rank":1,"nodes":[{"id":0,"name":"f","type":"COMP_NODE","ctrl_deps":null,"data_deps":null,"attrs":[{"name":"runtime","int64_val":200}]},{"id":1,"name":"ALL_REDUCE","type":"COMM_COLL_NODE","ctrl_deps":[0],"data_deps":null,"attrs":[{"name":"comm_type","string_val":"ALL_REDUCE"},{"name":"comm_size","int64_val":4096}]}]}` + "\n"
)

// nested is an array nested depth deep: as a record's field value, depth
// 9 999 is as deep as encoding/json reads, the record itself being one.
func nested(depth int) string {
	return strings.Repeat("[", depth) + strings.Repeat("]", depth)
}

// broadcast turns an nsys allreduce record into a broadcast from root.
func broadcast(allreduce string, root int) string {
	return strings.Replace(strings.Replace(allreduce, `"allreduce"`, `"broadcast"`, 1), `"comm":"c"`, fmt.Sprintf(`"comm":"c","root":%d`, root), 1)
}

// handWrittenCases is the malformed-and-odd input list: one property of
// the accepted language per entry. The fuzzers seed their corpora from it.
func handWrittenCases() []convertCase {
	crlf := func(s string) string { return strings.ReplaceAll(s, "\n", "\r\n") }
	return []convertCase{
		// nsys: a JSON value stream (not strictly one record per line)
		{name: "nsys/minimal", frontend: "nsys", raw: []byte(nsysHdr + nsysK0 + nsysAR0 + nsysAR1)},
		{name: "nsys/header-only", frontend: "nsys", raw: []byte(nsysHdr)},
		{name: "nsys/empty", frontend: "nsys", raw: nil},
		{name: "nsys/crlf-blank-indent", frontend: "nsys", raw: []byte(crlf(nsysHdr + "\n  " + nsysK0 + "\n\t" + nsysAR0 + nsysAR1 + "\n"))},
		{name: "nsys/two-records-one-line", frontend: "nsys", raw: []byte(nsysHdr + strings.TrimSuffix(nsysAR0, "\n") + " " + nsysAR1)},
		{name: "nsys/record-over-two-lines", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `,"kind"`, ",\n\"kind\"", 1))},
		{name: "nsys/no-final-newline", frontend: "nsys", raw: []byte(nsysHdr + strings.TrimSuffix(nsysK0, "\n"))},
		{name: "nsys/missing-kind", frontend: "nsys", raw: []byte(nsysHdr + `{"gpu":0,"stream":0,"start_ns":0,"end_ns":10}` + "\n")},
		{name: "nsys/missing-end", frontend: "nsys", raw: []byte(nsysHdr + `{"gpu":0,"stream":0,"kind":"kernel","start_ns":5}` + "\n")},
		{name: "nsys/missing-optional", frontend: "nsys", raw: []byte(nsysHdr + `{"kind":"kernel","end_ns":7}` + "\n")},
		{name: "nsys/string-for-int", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `"gpu":0`, `"gpu":"0"`, 1))},
		{name: "nsys/fraction-for-int", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `"gpu":0`, `"gpu":0.5`, 1))},
		{name: "nsys/exponent-for-int", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `"end_ns":10`, `"end_ns":1e3`, 1))},
		{name: "nsys/int-for-string", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `"kind":"kernel"`, `"kind":7`, 1))},
		{name: "nsys/uppercase-keys", frontend: "nsys", raw: []byte(nsysHdr + `{"GPU":1,"Stream":0,"KIND":"kernel","START_NS":3,"End_Ns":9}` + "\n")},
		{name: "nsys/uppercase-kind", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `"kernel"`, `"KERNEL"`, 1))},
		{name: "nsys/uppercase-coll", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysAR0, `"allreduce"`, `"AllReduce"`, 1) + nsysAR1)},
		{name: "nsys/escaped-strings", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(strings.Replace(nsysAR0, `"nccl"`, `"ncc\u006c"`, 1), `"comm":"c"`, `"comm":"\u0063"`, 1) + nsysAR1)},
		{name: "nsys/null-fields", frontend: "nsys", raw: []byte(nsysHdr + `{"gpu":null,"stream":0,"kind":"kernel","name":null,"start_ns":0,"end_ns":10,"comm":null}` + "\n")},
		{name: "nsys/duplicate-key-last-wins", frontend: "nsys", raw: []byte(nsysHdr + `{"gpu":0,"kind":"nccl","kind":"kernel","start_ns":0,"end_ns":4,"end_ns":10}` + "\n")},
		{name: "nsys/null-after-value-keeps-it", frontend: "nsys", raw: []byte(nsysHdr + `{"gpu":0,"kind":"kernel","kind":null,"start_ns":0,"end_ns":10}` + "\n")},
		{name: "nsys/unknown-field", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `"gpu":0`, `"gpu":0,"sm":[1,{"x":2}]`, 1))},
		{name: "nsys/trailing-comma", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `}`, `,}`, 1))},
		{name: "nsys/trailing-garbage", frontend: "nsys", raw: []byte(nsysHdr + strings.TrimSuffix(nsysK0, "\n") + " xyz\n")},
		{name: "nsys/null-record", frontend: "nsys", raw: []byte(nsysHdr + "null\n")},
		{name: "nsys/array-record", frontend: "nsys", raw: []byte(nsysHdr + "[1,2]\n")},
		{name: "nsys/truncated-record", frontend: "nsys", raw: []byte(nsysHdr + nsysK0[:30])},
		{name: "nsys/invalid-utf8-name", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `"name":"k"`, "\"name\":\"k\xff\"", 1))},
		{name: "nsys/unknown-comm", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysAR0, `"comm":"c"`, `"comm":"d"`, 1))},
		{name: "nsys/gpu-not-in-comm", frontend: "nsys", raw: []byte(strings.Replace(nsysHdr, `[0,1]`, `[1]`, 1) + nsysAR0)},
		{name: "nsys/repeated-comm-member", frontend: "nsys", raw: []byte(strings.Replace(nsysHdr, `[0,1]`, `[1,1]`, 1) + nsysK0)},
		{name: "nsys/missing-collective-on-gpu1", frontend: "nsys", raw: []byte(nsysHdr + nsysAR0)},
		{name: "nsys/send-recv", frontend: "nsys", raw: []byte(nsysHdr +
			`{"gpu":0,"stream":0,"kind":"nccl","start_ns":1,"end_ns":2,"coll":"send","bytes":512,"comm":"c","peer":1}` + "\n" +
			`{"gpu":1,"stream":0,"kind":"nccl","start_ns":1,"end_ns":2,"coll":"recv","bytes":512,"comm":"c","peer":0}` + "\n")},
		{name: "nsys/wrong-format", frontend: "nsys", raw: []byte(strings.Replace(nsysHdr, "v1", "v2", 1) + nsysK0)},
		{name: "nsys/zero-gpus", frontend: "nsys", raw: []byte(strings.Replace(nsysHdr, `"ngpus":2`, `"ngpus":0`, 1))},
		// recorded at df4c324: the record grammar at its edges
		{name: "nsys/escaped-key", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `"gpu":0`, `"\u0067pu":1`, 1))},
		{name: "nsys/unicode-folded-keys", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(strings.Replace(nsysK0, `"start_ns":0`, `"ſtart_ns":3`, 1), `"kind"`, `"\u212aind"`, 1))},
		{name: "nsys/nothing-between-values", frontend: "nsys", raw: []byte(strings.TrimSuffix(nsysHdr, "\n") + strings.TrimSuffix(nsysK0, "\n") + strings.TrimSuffix(nsysAR0, "\n") + nsysAR1)},
		{name: "nsys/negative-zero-int", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `"start_ns":0`, `"start_ns":-0`, 1))},
		{name: "nsys/leading-zero-int", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `"end_ns":10`, `"end_ns":010`, 1))},
		{name: "nsys/int64-max", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `"end_ns":10`, `"end_ns":9223372036854775807`, 1))},
		{name: "nsys/int64-min", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `"stream":0`, `"stream":-9223372036854775808`, 1))},
		{name: "nsys/int64-overflow", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `"end_ns":10`, `"end_ns":9223372036854775808`, 1))},
		{name: "nsys/bad-literal-for-int", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `"gpu":0`, `"gpu":tru`, 1))},
		{name: "nsys/control-byte-in-string", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `"name":"k"`, "\"name\":\"k\x01\"", 1))},
		{name: "nsys/invalid-escape", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `"name":"k"`, `"name":"k\x"`, 1))},
		{name: "nsys/bom-before-record", frontend: "nsys", raw: []byte(nsysHdr + "\xef\xbb\xbf" + nsysK0)},
		{name: "nsys/unknown-field-at-depth-limit", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `"gpu":0`, `"gpu":0,"sm":`+nested(9999), 1))},
		{name: "nsys/unknown-field-past-depth-limit", frontend: "nsys", raw: []byte(nsysHdr + strings.Replace(nsysK0, `"gpu":0`, `"gpu":0,"sm":`+nested(10000), 1))},
		// members of one collective that disagree: accepted at df4c324,
		// rejected since
		{name: "nsys/collective-bytes-disagree", frontend: "nsys", raw: []byte(nsysHdr + nsysAR0 + strings.Replace(nsysAR1, `"bytes":4096`, `"bytes":8192`, 1))},
		{name: "nsys/broadcast-roots-disagree", frontend: "nsys", raw: []byte(nsysHdr + broadcast(nsysAR0, 0) + broadcast(nsysAR1, 1))},
		{name: "nsys/broadcast-root-outside-comm", frontend: "nsys", raw: []byte(nsysHdr + broadcast(nsysAR0, 2) + broadcast(nsysAR1, 2))},

		// mpi: line-oriented text
		{name: "mpi/minimal", frontend: "mpi", raw: []byte(mpiHdr + mpiR0 + mpiR1)},
		{name: "mpi/crlf-blank-comment-indent", frontend: "mpi", raw: []byte(crlf("# liballprof\n\n" + mpiHdr + "  " + strings.ReplaceAll(mpiR0, "\nMPI", "\n\t MPI") + "\n# mid\n" + mpiR1))},
		{name: "mpi/unicode-space-separators", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "MPI_Send dst=1 bytes=64", "\u00a0MPI_Send\u2003dst=1\u00a0bytes=64", 1) + mpiR1)},
		{name: "mpi/no-final-newline", frontend: "mpi", raw: []byte(mpiHdr + mpiR0 + strings.TrimSuffix(mpiR1, "\n"))},
		{name: "mpi/unterminated-last-block", frontend: "mpi", raw: []byte(mpiHdr + mpiR0 + strings.TrimSuffix(mpiR1, "}\n"))},
		{name: "mpi/rank-in-two-blocks", frontend: "mpi", raw: []byte(mpiHdr + "rank 0 {\nMPI_Init t=0:10\n}\n" + mpiR1 + "rank 0 {\nMPI_Send dst=1 bytes=64 tag=3 t=20:30\nMPI_Allreduce bytes=128 t=40:50\n}\n")},
		{name: "mpi/blocks-out-of-order", frontend: "mpi", raw: []byte(mpiHdr + mpiR1 + mpiR0)},
		{name: "mpi/header-twice-resets", frontend: "mpi", raw: []byte(mpiHdr + mpiR0 + mpiHdr + mpiR0 + mpiR1)},
		{name: "mpi/missing-header", frontend: "mpi", raw: []byte(mpiR0 + mpiR1)},
		{name: "mpi/empty", frontend: "mpi", raw: nil},
		{name: "mpi/header-extra-field", frontend: "mpi", raw: []byte("mpitrace nranks 2 x\n" + mpiR0 + mpiR1)},
		{name: "mpi/header-zero-ranks", frontend: "mpi", raw: []byte("mpitrace nranks 0\n")},
		{name: "mpi/event-outside-block", frontend: "mpi", raw: []byte(mpiHdr + "MPI_Init t=0:10\n" + mpiR0 + mpiR1)},
		{name: "mpi/event-after-close", frontend: "mpi", raw: []byte(mpiHdr + mpiR0 + "MPI_Finalize t=60:70\n" + mpiR1)},
		{name: "mpi/close-with-trailing-words", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "}\n", "} end of rank\n", 1) + mpiR1)},
		{name: "mpi/double-close-token", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "}\n", "}}\n", 1) + mpiR1)},
		{name: "mpi/rank-out-of-range", frontend: "mpi", raw: []byte(mpiHdr + mpiR0 + strings.Replace(mpiR1, "rank 1 {", "rank 2 {", 1))},
		{name: "mpi/rank-brace-glued", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "rank 0 {", "rank 0{", 1) + mpiR1)},
		{name: "mpi/rank-plus-sign", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "rank 0 {", "rank +0 {", 1) + mpiR1)},
		{name: "mpi/missing-tag", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, " tag=3", "", 1) + strings.Replace(mpiR1, " tag=3", "", 1))},
		{name: "mpi/missing-peer", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, " dst=1", "", 1) + mpiR1)},
		{name: "mpi/missing-timestamps", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, " t=20:30", "", 1) + mpiR1)},
		{name: "mpi/bad-bytes-suffix", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "bytes=64", "bytes=4k", 1) + mpiR1)},
		{name: "mpi/bytes-hex", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "bytes=64", "bytes=0x40", 1) + mpiR1)},
		{name: "mpi/bytes-underscore", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "bytes=64", "bytes=6_4", 1) + mpiR1)},
		{name: "mpi/bytes-plus-sign", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "bytes=64", "bytes=+64", 1) + mpiR1)},
		{name: "mpi/bytes-negative", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "bytes=64", "bytes=-64", 1) + mpiR1)},
		{name: "mpi/tag-overflows-int32", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "tag=3", "tag=99999999999", 1) + mpiR1)},
		{name: "mpi/bytes-overflows-int64", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "bytes=64", "bytes=99999999999999999999", 1) + mpiR1)},
		{name: "mpi/timestamp-no-colon", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "t=20:30", "t=20", 1) + mpiR1)},
		{name: "mpi/timestamp-empty-end", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "t=20:30", "t=20:", 1) + mpiR1)},
		{name: "mpi/timestamp-two-colons", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "t=20:30", "t=20:30:40", 1) + mpiR1)},
		{name: "mpi/end-before-start", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "t=20:30", "t=30:20", 1) + mpiR1)},
		{name: "mpi/trailing-comma", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "dst=1", "dst=1,", 1) + mpiR1)},
		{name: "mpi/lowercase-call", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "MPI_Send", "mpi_send", 1) + mpiR1)},
		{name: "mpi/uppercase-attribute", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "dst=1", "DST=1", 1) + mpiR1)},
		{name: "mpi/unknown-call", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "MPI_Send", "MPI_Ssend", 1) + mpiR1)},
		{name: "mpi/unknown-attribute", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "tag=3", "tag=3 comm=0", 1) + mpiR1)},
		{name: "mpi/attribute-without-equals", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "tag=3", "tag", 1) + mpiR1)},
		{name: "mpi/attribute-empty-value", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "tag=3", "tag=", 1) + mpiR1)},
		{name: "mpi/value-with-equals", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "tag=3", "tag=3=4", 1) + mpiR1)},
		{name: "mpi/duplicate-attribute-last-wins", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "bytes=64", "bytes=32 bytes=64", 1) + mpiR1)},
		{name: "mpi/src-on-a-send", frontend: "mpi", raw: []byte(mpiHdr + strings.Replace(mpiR0, "dst=1", "src=1", 1) + mpiR1)},
		{name: "mpi/nonblocking-and-wait", frontend: "mpi", raw: []byte(mpiHdr +
			"rank 0 {\nMPI_Isend dst=1 bytes=64 tag=3 req=7 t=20:21\nMPI_Wait req=7 t=25:30\n}\n" +
			"rank 1 {\nMPI_Irecv src=0 bytes=64 tag=3 req=9 t=20:21\nMPI_Wait req=9 t=25:35\n}\n")},
		{name: "mpi/wait-for-unknown-request", frontend: "mpi", raw: []byte(mpiHdr + "rank 0 {\nMPI_Wait req=7 t=25:30\n}\nrank 1 {\n}\n")},
		{name: "mpi/collective-count-mismatch", frontend: "mpi", raw: []byte(mpiHdr + mpiR0 + "rank 1 {\nMPI_Init t=0:10\n}\n")},
		{name: "mpi/rooted-collectives", frontend: "mpi", raw: []byte(mpiHdr +
			"rank 0 {\nMPI_Bcast bytes=4096 root=1 t=0:10\nMPI_Barrier t=20:30\nMPI_Reduce bytes=64 root=0 t=40:50\n}\n" +
			"rank 1 {\nMPI_Bcast bytes=4096 root=1 t=0:12\nMPI_Barrier t=20:31\nMPI_Reduce bytes=64 root=0 t=40:52\n}\n")},

		// spc: CSV
		{name: "spc/minimal", frontend: "spc", raw: []byte("0,100,4096,R,0.000000\n1,208,8192,W,0.001500\n")},
		{name: "spc/lowercase-opcodes", frontend: "spc", raw: []byte("0,100,4096,r,0.000000\n1,208,8192,w,0.001500\n")},
		{name: "spc/crlf-blank-comment", frontend: "spc", raw: []byte("0,100,4096,R,0.0\r\n\r\n# note, with, commas\r\n   \r\n1,208,8192,W,0.0015\r\n")},
		{name: "spc/spaces-around-fields", frontend: "spc", raw: []byte(" 0 ,\t100 , 4096 , W , 0.5 \n")},
		{name: "spc/unicode-space-around-fields", frontend: "spc", raw: []byte("\u00a00,100\u2003,4096,R,0.5\n")},
		{name: "spc/no-final-newline", frontend: "spc", raw: []byte("0,100,4096,R,0.5")},
		{name: "spc/extra-fields-ignored", frontend: "spc", raw: []byte("0,100,4096,R,0.5,x,y\n")},
		{name: "spc/trailing-comma", frontend: "spc", raw: []byte("0,100,4096,R,0.5,\n")},
		{name: "spc/four-fields", frontend: "spc", raw: []byte("0,100,4096,R\n")},
		{name: "spc/empty-timestamp", frontend: "spc", raw: []byte("0,100,4096,R,\n")},
		{name: "spc/empty", frontend: "spc", raw: nil},
		{name: "spc/comment-only", frontend: "spc", raw: []byte("# nothing\n")},
		{name: "spc/indented-comment", frontend: "spc", raw: []byte("0,100,4096,R,0.5\n   # indented\n")},
		{name: "spc/bad-opcode", frontend: "spc", raw: []byte("0,100,4096,X,0.5\n")},
		{name: "spc/two-letter-opcode", frontend: "spc", raw: []byte("0,100,4096,RW,0.5\n")},
		{name: "spc/fraction-for-int", frontend: "spc", raw: []byte("0,100.0,4096,R,0.5\n")},
		{name: "spc/hex-int", frontend: "spc", raw: []byte("0,0x64,4096,R,0.5\n")},
		{name: "spc/plus-sign-int", frontend: "spc", raw: []byte("+0,+100,+4096,R,+0.5\n")},
		{name: "spc/underscore-int", frontend: "spc", raw: []byte("0,1_00,4096,R,0.5\n")},
		{name: "spc/int-overflow", frontend: "spc", raw: []byte("0,99999999999999999999,4096,R,0.5\n")},
		{name: "spc/exponent-timestamp", frontend: "spc", raw: []byte("0,100,4096,R,5e-1\n1,100,4096,R,1E0\n")},
		{name: "spc/hex-float-timestamp", frontend: "spc", raw: []byte("0,100,4096,R,0x1p-1\n")},
		{name: "spc/bad-timestamp", frontend: "spc", raw: []byte("0,100,4096,R,1.2.3\n")},
		{name: "spc/zero-size", frontend: "spc", raw: []byte("0,100,0,R,0.5\n")},
		{name: "spc/negative-lba", frontend: "spc", raw: []byte("0,-1,4096,R,0.5\n")},
		{name: "spc/time-goes-back", frontend: "spc", raw: []byte("0,100,4096,R,0.5\n0,100,4096,R,0.4\n")},
		{name: "spc/many-asus-and-gaps", frontend: "spc", raw: []byte("0,8,512,W,0.1\n4,16,512,R,0.2\n0,24,1024,W,0.3\n9,32,512,R,0.3\n4,40,512,W,0.7\n")},

		// chakra: a JSON value stream of rank documents
		{name: "chakra/minimal", frontend: "chakra", raw: []byte(chakraHdr + chakraR0 + chakraR1)},
		{name: "chakra/header-only", frontend: "chakra", raw: []byte(chakraHdr)},
		{name: "chakra/crlf-blank", frontend: "chakra", raw: []byte(crlf(chakraHdr + "\n" + chakraR0 + "\n" + chakraR1))},
		{name: "chakra/rank-out-of-range", frontend: "chakra", raw: []byte(chakraHdr + chakraR0 + strings.Replace(chakraR1, `"rank":1`, `"rank":2`, 1))},
		{name: "chakra/rank-twice-last-wins", frontend: "chakra", raw: []byte(chakraHdr + chakraR0 + chakraR0 + chakraR1)},
		{name: "chakra/zero-ranks", frontend: "chakra", raw: []byte(strings.Replace(chakraHdr, `"nranks":2`, `"nranks":0`, 1))},
		{name: "chakra/unknown-field", frontend: "chakra", raw: []byte(chakraHdr + strings.Replace(chakraR0, `"rank":0`, `"rank":0,"pid":17`, 1) + chakraR1)},
		{name: "chakra/trailing-comma", frontend: "chakra", raw: []byte(chakraHdr + strings.Replace(chakraR0, `]}`+"\n", `],}`+"\n", 1) + chakraR1)},
		{name: "chakra/trailing-garbage", frontend: "chakra", raw: []byte(chakraHdr + chakraR0 + chakraR1 + "xyz\n")},
		{name: "chakra/dependency-not-found", frontend: "chakra", raw: []byte(chakraHdr + strings.Replace(chakraR0, `"ctrl_deps":[0]`, `"ctrl_deps":[5]`, 1) + chakraR1)},
		{name: "chakra/unknown-node-type", frontend: "chakra", raw: []byte(chakraHdr + strings.Replace(chakraR0, "COMP_NODE", "comp_node", 1) + chakraR1)},
		{name: "chakra/missing-collective-on-rank1", frontend: "chakra", raw: []byte(chakraHdr + chakraR0)},
	}
}

// TestConvertedSchedulesEncodeAsBefore pins what every trace frontend
// makes of its input — accepted or rejected and, when accepted, the binary
// GOAL encoding — to what the code made of it when it was recorded
// (pinnedConversions says at which commit). The first three rows are the
// schedules the repo benchmark converts (bench/replay.go, full scale, seed
// 1), whose digests go back to commit 65f5b2e, the last one with per-op
// [][]int32 dependency lists; then two seeds of a generated fixture per
// format, then the hand-written list. The encoding writes
// every op's dependencies in list order, so a digest moves if a parser, a
// converter or the builder reorders, drops or duplicates a single edge —
// which is also what would move every spec fingerprint and
// goal_bytes_per_op.
//
// The nsys and spc rows run a second time in reverse order, each on the
// scratch (nsys) or the trace (spc) the conversion of the row after it
// left behind: a larger, a smaller or a failing input's.
func TestConvertedSchedulesEncodeAsBefore(t *testing.T) {
	tr, err := hpcapps.Generate(hpcapps.Config{App: hpcapps.LULESH, Ranks: 128, Steps: 9, Seed: 1})
	cases := []convertCase{
		benchLLMCase(t),
		{"bench/hpcapps", "mpi", traceBytes(t, tr, err), nil},
		{"bench/oltp", "spc", traceBytes(t, oltp.GenerateFinancial(oltp.FinancialConfig{Ops: 3400, Seed: 1}), nil), nil},
		{"fixture/nsys-1", "nsys", nsysFixture(t, 1), nil},
		{"fixture/nsys-2", "nsys", nsysFixture(t, 2), NsysConfig{GPUsPerNode: 2}},
		{"fixture/mpi-1", "mpi", mpiFixture(t, 1), nil},
		{"fixture/mpi-2", "mpi", mpiFixture(t, 2), nil},
		{"fixture/spc-1", "spc", spcFixture(t, 1), nil},
		{"fixture/spc-2", "spc", spcFixture(t, 2), SPCConfig{Hosts: 3, CCS: 1, BSS: 4, Replicas: 2}},
		{"fixture/chakra-1", "chakra", chakraLLMFixture(t, 1), nil},
		{"fixture/chakra-2", "chakra", chakraLLMFixture(t, 2), nil},
	}
	cases = append(cases, handWrittenCases()...)
	seen := map[string]bool{}
	for _, c := range cases {
		if seen[c.name] {
			t.Fatalf("duplicate case name %q", c.name)
		}
		seen[c.name] = true
		t.Run(c.name, func(t *testing.T) { checkPinned(t, c) })
	}
	for i := len(cases) - 1; i >= 0; i-- {
		if c := cases[i]; c.frontend == "nsys" || c.frontend == "spc" {
			t.Run("reverse/"+c.name, func(t *testing.T) { checkPinned(t, c) })
		}
	}
}

// benchLLMCase is the nsys trace the repo benchmark's ai-replay-lgs
// converts (bench/replay.go, full scale, seed 1).
func benchLLMCase(t testing.TB) convertCase {
	rep, err := llm.Generate(llm.Config{Model: llm.Llama7B(), Par: llm.Parallelism{TP: 2, PP: 2, DP: 8, EP: 1, GlobalBatch: 32}, Scale: 1e-3, Seed: 1})
	return convertCase{"bench/llm", "nsys", traceBytes(t, rep, err), NsysConfig{GPUsPerNode: 2}}
}

// TestConvertConcurrently: four goroutines convert every nsys row of the
// pinned table at once, each from another row on, so conversions in
// flight together take scratches from the kept stock and return them in
// every order, and every verdict and digest holds.
func TestConvertConcurrently(t *testing.T) {
	rows := []convertCase{
		benchLLMCase(t),
		{"fixture/nsys-1", "nsys", nsysFixture(t, 1), nil},
		{"fixture/nsys-2", "nsys", nsysFixture(t, 2), NsysConfig{GPUsPerNode: 2}},
	}
	for _, c := range handWrittenCases() {
		if c.frontend == "nsys" {
			rows = append(rows, c)
		}
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rows {
				c := rows[(i+w*len(rows)/4)%len(rows)]
				if got, err := digest(c); got != pinnedConversions[c.name] {
					t.Errorf("%s: sha256 %q (%v); recorded %q", c.name, got, err, pinnedConversions[c.name])
				}
			}
		}()
	}
	wg.Wait()
}

// digest returns the SHA-256 of the binary GOAL encoding of what c
// converts to, or "" and the error if it does not convert.
func digest(c convertCase) (string, error) {
	s, err := ConvertTrace(c.raw, c.frontend, c.cfg)
	if err != nil {
		return "", err
	}
	return encodingSum(s), nil
}

// encodingSum returns the SHA-256 of the binary GOAL encoding of s.
func encodingSum(s *Schedule) string {
	var bin bytes.Buffer
	_ = goal.WriteBinary(&bin, s) // a bytes.Buffer takes every write
	sum := sha256.Sum256(bin.Bytes())
	return hex.EncodeToString(sum[:])
}

// checkPinned converts c and compares the outcome with its pin.
func checkPinned(t *testing.T, c convertCase) {
	got, err := digest(c)
	switch want := pinnedConversions[c.name]; {
	case got == want:
	case want == "":
		t.Errorf("accepted (sha256 %s); recorded as rejected", got)
	case got == "":
		t.Errorf("rejected (%v); recorded as accepted as %s", err, want)
	default:
		t.Errorf("sha256 %s; recorded %s", got, want)
	}
}

// TestNsysRowsSeedParseFuzzer: every nsys row of the hand-written list is
// a file of nsys.FuzzParseBytesMatchesDecoder's seed corpus, named after
// the row, so the scanner is held to encoding/json on each of them.
func TestNsysRowsSeedParseFuzzer(t *testing.T) {
	dir := filepath.Join("..", "internal", "trace", "nsys", "testdata", "fuzz", "FuzzParseBytesMatchesDecoder")
	for _, c := range handWrittenCases() {
		name, ok := strings.CutPrefix(c.name, "nsys/")
		if !ok {
			continue
		}
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", c.raw)
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != want {
			t.Errorf("%s: %s/%s should hold the row (%v); want:\n%s", c.name, dir, name, err, want)
		}
	}
}

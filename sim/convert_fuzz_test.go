package sim

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"atlahs/internal/goal"
)

// Headers that declare more ranks than any schedule may have. Each used to
// size a slice from the declared count before reading a single event.
var hostileHeaders = map[string][]string{
	"mpi": {
		"mpitrace nranks 4000000000000\n",
		fmt.Sprintf("mpitrace nranks %d\n", goal.MaxTextRanks+1),
	},
	"nsys": {
		`{"format":"atlahs-nsys-v1","ngpus":4000000000000,"comms":{}}` + "\n",
		fmt.Sprintf(`{"format":"atlahs-nsys-v1","ngpus":%d,"comms":{}}`+"\n", goal.MaxTextRanks+1),
	},
	"chakra": {
		`{"format":"atlahs-chakra-et-v1","nranks":4000000000000}` + "\n",
		fmt.Sprintf(`{"format":"atlahs-chakra-et-v1","nranks":%d}`+"\n", goal.MaxTextRanks+1),
	},
}

// TestConvertCapsDeclaredCounts: a rank, GPU or component count that
// arrives from outside — in a trace header or in a FrontendConfig, which a
// wire spec carries — is held to goal.MaxTextRanks and answered with an
// error. The 30-byte mpi header used to kill the process with an
// out-of-memory fatal error, the nsys one panicked in goal.NewBuilder.
func TestConvertCapsDeclaredCounts(t *testing.T) {
	for frontend, headers := range hostileHeaders {
		for _, h := range headers {
			if _, err := ConvertTrace([]byte(h), frontend, nil); err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
				t.Errorf("%s: %q: got %v, want a limit error", frontend, h, err)
			}
		}
	}
	spcLine := []byte("0,100,4096,R,0.5\n")
	for _, cfg := range []SPCConfig{
		{Hosts: 4000000000000},
		{CCS: 4000000000000},
		{BSS: 4000000000000},
		{StreamsPerHost: 4000000000000},
		{Hosts: goal.MaxTextRanks - 2},
		{Hosts: 1 << 19, CCS: 1 << 18, BSS: 1 << 18},
		{Hosts: 1 << 12, StreamsPerHost: 1 << 12},
	} {
		if _, err := ConvertTrace(spcLine, "spc", cfg); err == nil || !strings.Contains(err.Error(), "the limit") {
			t.Errorf("spc %+v: got %v, want a limit error", cfg, err)
		}
	}
	// GPUsPerNode only divides the report's GPU count, which the header
	// cap bounds: any value converts.
	nsys := []byte(nsysHdr + nsysK0 + nsysAR0 + nsysAR1)
	for _, per := range []int{math.MaxInt, math.MinInt, 1 << 40} {
		s, err := ConvertTrace(nsys, "nsys", NsysConfig{GPUsPerNode: per})
		if err != nil || s.NumRanks() > 2 {
			t.Errorf("nsys GPUsPerNode %d: %v", per, err)
		}
	}
	// Channels sizes per-channel scratch in every collective.
	if _, err := ConvertTrace(nsys, "nsys", NsysConfig{Channels: 4000000000000}); err == nil || !strings.Contains(err.Error(), "channels") {
		t.Errorf("nsys Channels: got %v, want an error", err)
	}
}

// convertAllocBudget is how much one conversion may allocate: a fixed part
// for what a header within goal.MaxTextRanks may legitimately declare
// (builder, schedule and trace each hold a small struct per rank) plus a
// part proportional to the input. Decomposed collectives multiply a
// line's bytes by the rank count, hence the generous factor; the gate is
// against counts read from the input sizing memory on their own.
func convertAllocBudget(inputLen int) uint64 {
	return 1<<30 + 1<<13*uint64(inputLen)
}

// fuzzConvert is the body of the four convert fuzzers: whatever the bytes,
// the named frontend returns — it does not panic, exhaust memory, or
// allocate beyond convertAllocBudget — and a schedule it returns is valid.
// The corpus is seeded with the generated fixtures, every hand-written
// case of TestConvertedSchedulesEncodeAsBefore for the format, the
// hostile headers, and lines longer than the 64 KiB the old
// bufio.Scanner-based parsers started from. When then is not nil, it runs
// on each input after those checks, with the conversion's result.
func fuzzConvert(f *testing.F, frontend string, then func(t *testing.T, raw []byte, s *Schedule, err error), fixtures ...[]byte) {
	for _, b := range fixtures {
		f.Add(b)
	}
	for _, c := range handWrittenCases() {
		if c.frontend == frontend {
			f.Add(c.raw)
		}
	}
	for _, h := range hostileHeaders[frontend] {
		f.Add([]byte(h))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<20 {
			t.Skip("input larger than the fuzzers explore")
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := ConvertTrace(raw, frontend, nil)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, convertAllocBudget(len(raw)); got > limit {
			t.Fatalf("converting %d bytes allocated %d bytes, budget %d", len(raw), got, limit)
		}
		if err == nil {
			if err := s.Validate(); err != nil {
				t.Fatalf("accepted input converts to an invalid schedule: %v", err)
			}
		}
		if then != nil {
			then(t, raw, s, err)
		}
	})
}

// FuzzConvertNsys also converts every input a second time, after a
// generated fixture, on the scratch that fixture left behind: both
// conversions must give the same encoding or the same error.
func FuzzConvertNsys(f *testing.F) {
	long := strings.Repeat("x", 70<<10)
	other := nsysFixture(f, 2)
	again := func(t *testing.T, raw []byte, s *Schedule, err error) {
		if _, err := ConvertTrace(other, "nsys", nil); err != nil {
			t.Fatal(err)
		}
		s2, err2 := ConvertTrace(raw, "nsys", nil)
		if (err == nil) != (err2 == nil) || err != nil && err.Error() != err2.Error() {
			t.Fatalf("first conversion: %v; second: %v", err, err2)
		}
		if err == nil && encodingSum(s) != encodingSum(s2) {
			t.Fatal("a second conversion encodes differently from the first")
		}
	}
	fuzzConvert(f, "nsys", again, nsysFixture(f, 1), other,
		[]byte(nsysHdr+strings.Replace(nsysK0, `"name":"k"`, `"name":"`+long+`"`, 1)),
		[]byte(nsysHdr+strings.Repeat(" ", 70<<10)+nsysK0))
}

func FuzzConvertMPI(f *testing.F) {
	long := strings.Repeat("x", 70<<10)
	fuzzConvert(f, "mpi", nil, mpiFixture(f, 1), mpiFixture(f, 2),
		[]byte("# "+long+"\n"+mpiHdr+mpiR0+mpiR1),
		[]byte(mpiHdr+strings.Replace(mpiR0, "MPI_Init", "MPI_"+long, 1)+mpiR1),
		[]byte(mpiHdr+strings.Replace(mpiR0, "tag=3", "tag=3"+strings.Repeat(" tag=3", 12<<10), 1)+mpiR1))
}

func FuzzConvertSPC(f *testing.F) {
	long := strings.Repeat("9", 70<<10)
	fuzzConvert(f, "spc", nil, spcFixture(f, 1), spcFixture(f, 2),
		[]byte("# "+long+"\n0,100,4096,R,0.5\n"),
		[]byte("0,"+long+",4096,R,0.5\n"),
		[]byte("0,100,4096,R,0.5"+strings.Repeat(",x", 35<<10)+"\n"))
}

func FuzzConvertChakra(f *testing.F) {
	long := strings.Repeat("x", 70<<10)
	fuzzConvert(f, "chakra", nil, chakraLLMFixture(f, 1), chakraLLMFixture(f, 2),
		[]byte(chakraHdr+strings.Replace(chakraR0, `"name":"f"`, `"name":"`+long+`"`, 1)+chakraR1))
}

package analyze

import (
	"os"
	"strings"
	"testing"
	"time"

	"atlahs/results"
)

func TestSeriesFromPivot(t *testing.T) {
	entries := []HistoryEntry{
		{Label: "one", Unix: 10, Values: map[string]float64{"runtime_ps": 100, "ops": 5}},
		{Label: "two", Unix: 20, Values: map[string]float64{"runtime_ps": 110}},
		{Label: "three", Unix: 30, Values: map[string]float64{"runtime_ps": 120, "ops": 7}},
	}
	series := SeriesFrom(entries)
	if len(series) != 2 || series[0].Metric != "ops" || series[1].Metric != "runtime_ps" {
		t.Fatalf("series = %+v, want [ops runtime_ps]", series)
	}
	if got := series[0].Points; len(got) != 2 || got[0].Value != 5 || got[1].Value != 7 {
		t.Errorf("ops points = %+v", got)
	}
	rt := series[1].Points
	if len(rt) != 3 || rt[0].Label != "one" || rt[2].Label != "three" || rt[2].Unix != 30 {
		t.Errorf("runtime_ps points = %+v", rt)
	}
}

// saveRun stores a minimal service-shaped run artifact with the given
// derived runtime, stamped at the given mtime so walk order is fixed.
func saveRun(t *testing.T, st *results.Store, name string, runtime float64, mtime time.Time) {
	t.Helper()
	s := results.NewSweep(name, "Run", "service")
	s.AddColumn("rank", results.Int, "")
	s.MustAddRow(int64(0))
	s.SetDerived("runtime_ps", runtime)
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(st.Path(name), mtime, mtime); err != nil {
		t.Fatal(err)
	}
}

func TestStoreHistory(t *testing.T) {
	st, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1700000000, 0)
	// Saved newest-first on purpose: the walk must order by mtime.
	saveRun(t, st, "r_00000000000000ff", 300, base.Add(2*time.Hour))
	saveRun(t, st, "r_00000000000000aa", 100, base)
	saveRun(t, st, "r_00000000000000bb", 200, base.Add(time.Hour))

	// A non-run artifact must be ignored entirely.
	other := results.NewSweep("fig8_quick", "Fig 8", "quick")
	other.AddColumn("v", results.Int, "")
	other.MustAddRow(int64(1))
	other.SetDerived("runtime_ps", 999)
	if err := st.Save(other); err != nil {
		t.Fatal(err)
	}
	// A corrupt run artifact must be skipped with a warning, not fail the walk.
	if err := os.WriteFile(st.Path("r_00000000000000cc"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	series, warnings, err := StoreHistory(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "r_00000000000000cc") {
		t.Errorf("warnings = %v, want one naming the corrupt run", warnings)
	}
	if len(series) != 1 || series[0].Metric != "runtime_ps" {
		t.Fatalf("series = %+v, want just runtime_ps", series)
	}
	pts := series[0].Points
	if len(pts) != 3 {
		t.Fatalf("points = %+v, want 3", pts)
	}
	wantOrder := []string{"r_00000000000000aa", "r_00000000000000bb", "r_00000000000000ff"}
	for i, want := range wantOrder {
		if pts[i].Label != want {
			t.Errorf("point %d label = %q, want %q (chronological)", i, pts[i].Label, want)
		}
	}
	if pts[0].Value != 100 || pts[2].Value != 300 {
		t.Errorf("values = %v %v %v, want 100 200 300", pts[0].Value, pts[1].Value, pts[2].Value)
	}
}

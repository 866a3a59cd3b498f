package results

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func storeSweep(name string) *Sweep {
	s := NewSweep(name, "store test", "quick")
	s.AddColumn("rank", Int, "")
	s.AddColumn("end", Duration, "ps")
	s.MustAddRow(int64(0), int64(100))
	s.MustAddRow(int64(1), int64(250))
	s.SetDerived("runtime_ps", 250)
	return s
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := storeSweep("r_0a1b2c3d4e5f6789")
	if err := st.Save(want); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(st.Path(want.Name)); err != nil {
		t.Fatalf("artifact not at Path(): %v", err)
	}
	if base := filepath.Base(st.Path(want.Name)); base != want.Name+".json" {
		t.Fatalf("artifact file %q, want %q", base, want.Name+".json")
	}
	b, err := os.ReadFile(st.Path(want.Name))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSON(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the sweep:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestStoreRejectsBadNames(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "../escape", "No-Caps", "has space", "0starts_with_digit"} {
		if err := st.Save(storeSweep(name)); err == nil {
			t.Fatalf("Save accepted name %q", name)
		}
	}
}

func TestStoreNames(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := st.Save(storeSweep(name)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := st.Names()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

// TestStoreList: List describes each artifact with its size, and skips
// nothing Names would report.
func TestStoreList(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"beta", "alpha"} {
		if err := st.Save(storeSweep(name)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name != "alpha" || entries[1].Name != "beta" {
		t.Fatalf("List() = %+v, want alpha then beta", entries)
	}
	for _, e := range entries {
		if e.Size <= 0 || e.ModTime.IsZero() {
			t.Fatalf("entry %+v misses size or mtime", e)
		}
	}
}

// TestStoreMeta: metadata sidecars round-trip, live outside the artifact
// namespace (Names and List never report them), and reject unknown fields
// on load.
func TestStoreMeta(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type doc struct {
		Schema string `json:"schema"`
		Count  int    `json:"count"`
	}
	if err := st.SaveMeta("run_one", doc{Schema: MetaSchema, Count: 7}); err != nil {
		t.Fatal(err)
	}
	var got doc
	if err := st.LoadMeta("run_one", &got); err != nil {
		t.Fatal(err)
	}
	if got != (doc{Schema: MetaSchema, Count: 7}) {
		t.Fatalf("meta round trip changed the document: %+v", got)
	}
	names, err := st.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("sidecars leaked into the artifact namespace: %v", names)
	}
	if err := st.SaveMeta("../escape", doc{}); err == nil {
		t.Fatal("SaveMeta accepted a path-escaping name")
	}
	if err := st.LoadMeta("missing", &got); err == nil {
		t.Fatal("LoadMeta of a missing sidecar succeeded")
	}
	// A document with fields the caller's type does not know must fail
	// loudly, not decode half-empty.
	if err := os.WriteFile(st.MetaPath("run_one"), []byte(`{"schema":"atlahs.runmeta/v1","count":1,"extra":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.LoadMeta("run_one", &got); err == nil {
		t.Fatal("LoadMeta decoded a document with unknown fields")
	}
}

// dirNames lists the names in dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestWriteAtomicLeavesNoTempFile: a save that succeeds leaves only
// <name>.json behind, and one that fails — in the write, or in the rename
// onto a directory — leaves no temp file.
func TestWriteAtomicLeavesNoTempFile(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(storeSweep("r_ok")); err != nil {
		t.Fatal(err)
	}
	if got := dirNames(t, st.Dir()); !reflect.DeepEqual(got, []string{"r_ok.json"}) {
		t.Fatalf("a save left %q, want only r_ok.json", got)
	}
	failed := errors.New("write failed")
	err = writeAtomic(st.Dir(), "r_write", "sweep", func(w io.Writer) error {
		w.Write([]byte("{"))
		return failed
	})
	if err != failed {
		t.Fatalf("failed write returned %v, want its own error", err)
	}
	if err := os.MkdirAll(filepath.Join(st.Dir(), "r_dir.json", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(storeSweep("r_dir")); err == nil {
		t.Fatal("a save renamed over a directory")
	}
	if got := dirNames(t, st.Dir()); !reflect.DeepEqual(got, []string{"r_dir.json", "r_ok.json"}) {
		t.Fatalf("failed saves left %q", got)
	}
}

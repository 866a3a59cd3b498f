package frontend

import (
	"bytes"
	"strings"
	"testing"

	"atlahs/internal/goal"
)

// fakeConvert is a converter stub for registry tests.
func fakeConvert([]byte, any) (*goal.Schedule, error) { return nil, nil }

func TestRegisterPanics(t *testing.T) {
	expectPanic := func(label string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", label)
			}
		}()
		f()
	}
	expectPanic("empty name", func() { Register(Definition{Convert: fakeConvert}) })
	expectPanic("nil convert", func() { Register(Definition{Name: "broken"}) })
	Register(Definition{Name: "fft-dup", Convert: fakeConvert})
	expectPanic("duplicate", func() { Register(Definition{Name: "fft-dup", Convert: fakeConvert}) })
}

func TestDetect(t *testing.T) {
	Register(Definition{
		Name:       "fft-alpha",
		Extensions: []string{".alpha"},
		Sniff:      func(p []byte) bool { return bytes.HasPrefix(p, []byte("ALPHA")) },
		Convert:    fakeConvert,
	})
	Register(Definition{
		Name:    "fft-alpha2",
		Sniff:   func(p []byte) bool { return bytes.HasPrefix(p, []byte("ALPHA2")) },
		Convert: fakeConvert,
	})

	// Unique sniff match wins.
	def, err := Detect([]byte("no such thing"), "x.alpha")
	if err != nil || def.Name != "fft-alpha" {
		t.Fatalf("extension fallback got (%q, %v)", def.Name, err)
	}
	// Ambiguity is an error, not a pick.
	if _, err := Detect([]byte("ALPHA2..."), ""); err == nil || !strings.Contains(err.Error(), "matches 2 formats") {
		t.Fatalf("ambiguous sniff should error, got %v", err)
	}
	// Nothing matches: the error lists the registry.
	if _, err := Detect([]byte("???"), "trace.unknown"); err == nil || !strings.Contains(err.Error(), "goal") {
		t.Fatalf("undetectable error should list frontends, got %v", err)
	}
	// An extension claimed twice is ambiguous, not an alphabetical pick.
	Register(Definition{Name: "fft-alpha-rival", Extensions: []string{".alpha"}, Convert: fakeConvert})
	if _, err := Detect([]byte("no sniffer hit"), "x.alpha"); err == nil || !strings.Contains(err.Error(), "claimed by 2 frontends") {
		t.Fatalf("extension collision should error, got %v", err)
	}
}

func TestFirstLine(t *testing.T) {
	got := FirstLine([]byte("\n  \n# comment\n// other\nmpitrace nranks 2\nrank 0 {\n"), "#", "//")
	if string(got) != "mpitrace nranks 2" {
		t.Fatalf("FirstLine = %q", got)
	}
	if FirstLine([]byte("# only\n# comments\n"), "#") != nil {
		t.Fatal("all-comment prefix should yield nil")
	}
	// No trailing newline: the partial line still surfaces.
	if string(FirstLine([]byte("num_ranks 4"), "//")) != "num_ranks 4" {
		t.Fatal("unterminated first line lost")
	}
}

func TestGoalFrontend(t *testing.T) {
	def, ok := Lookup("goal")
	if !ok {
		t.Fatal("goal frontend not registered")
	}
	b := goal.NewBuilder(2)
	b.Rank(0).Send(16, 1, 0)
	b.Rank(1).Recv(16, 0, 0)
	s := b.MustBuild()

	var bin, txt bytes.Buffer
	if err := goal.WriteBinary(&bin, s); err != nil {
		t.Fatal(err)
	}
	if err := goal.WriteText(&txt, s); err != nil {
		t.Fatal(err)
	}
	for label, raw := range map[string][]byte{"binary": bin.Bytes(), "text": txt.Bytes()} {
		if !def.Sniff(raw) {
			t.Fatalf("%s GOAL not sniffed", label)
		}
		got, err := def.Convert(raw, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got.ComputeStats() != s.ComputeStats() {
			t.Fatalf("%s: round trip changed stats", label)
		}
	}
	if _, err := def.Convert(bin.Bytes(), struct{}{}); err == nil {
		t.Fatal("goal frontend should reject configs")
	}
}

func TestConfigAs(t *testing.T) {
	type cfg struct{ N int }
	if got, err := ConfigAs[cfg]("x", nil); err != nil || got != (cfg{}) {
		t.Fatalf("nil: %v %v", got, err)
	}
	if got, err := ConfigAs[cfg]("x", cfg{3}); err != nil || got.N != 3 {
		t.Fatalf("value: %v %v", got, err)
	}
	if got, err := ConfigAs[cfg]("x", &cfg{4}); err != nil || got.N != 4 {
		t.Fatalf("pointer: %v %v", got, err)
	}
	if got, err := ConfigAs[cfg]("x", (*cfg)(nil)); err != nil || got != (cfg{}) {
		t.Fatalf("nil pointer: %v %v", got, err)
	}
	if _, err := ConfigAs[cfg]("x", 42); err == nil || !strings.Contains(err.Error(), `"x" wants a`) {
		t.Fatalf("mismatch: %v", err)
	}
}

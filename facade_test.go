package atlahs

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeBoundary: cmd/ and examples/ program against the sim facade,
// never against the scheduler or the engines — sim is the one place that
// wires workload -> backend -> engine. Examples are held to the full
// boundary: they ingest traces through the workload-frontend registry and
// build schedules through sim's builder and codec re-exports, so they
// import neither internal/trace nor internal/goal. Imports are read from
// the syntax tree, so a comment naming a package does not count.
func TestFacadeBoundary(t *testing.T) {
	facade := []string{"atlahs/internal/sched", "atlahs/internal/engine"}
	banned := map[string][]string{
		"cmd":      facade,
		"examples": append(facade, "atlahs/internal/trace", "atlahs/internal/goal"),
	}
	for root, pkgs := range banned {
		files := 0
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || filepath.Ext(path) != ".go" {
				return err
			}
			files++
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				got, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					return err
				}
				for _, p := range pkgs {
					if got == p || strings.HasPrefix(got, p+"/") {
						t.Errorf("%s imports %s: %s/ goes through the sim facade", path, got, root)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if files == 0 {
			t.Fatalf("no Go files under %s/", root)
		}
	}
}

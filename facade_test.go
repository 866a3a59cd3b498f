package atlahs

import (
	"go/ast"
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
		checkImports(t, root, pkgs, "goes through the sim facade")
	}
}

// TestServiceDoesNotDiff: the service stores and serves run artifacts;
// diffing two of them is atlahs-analyze's job, over the downloaded files.
func TestServiceDoesNotDiff(t *testing.T) {
	checkImports(t, "internal/service", []string{"atlahs/internal/analyze"}, "diffs runs through atlahs-analyze")
}

// TestEventSourcesNotClosures: the packet and LGS models schedule through
// handlers bound once on long-lived records, so no non-test Schedule,
// ScheduleOn or After call in internal/pktnet or internal/backend takes a
// func literal.
func TestEventSourcesNotClosures(t *testing.T) {
	for _, root := range []string{"internal/pktnet", "internal/backend"} {
		calls := 0
		walkGo(t, root, 0, func(path string, fset *token.FileSet, f *ast.File) {
			if strings.HasSuffix(path, "_test.go") {
				return
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Schedule" && sel.Sel.Name != "ScheduleOn" && sel.Sel.Name != "After") {
					return true
				}
				calls++
				for _, arg := range call.Args {
					if _, lit := arg.(*ast.FuncLit); lit {
						t.Errorf("%s: %s takes a func literal; bind a handler on a long-lived record", fset.Position(arg.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		})
		if calls == 0 {
			t.Errorf("no Schedule, ScheduleOn or After call under %s/: the check matches nothing", root)
		}
	}
}

// checkImports fails the test for every Go file under root, tests
// included, that imports one of pkgs or a package below it.
func checkImports(t *testing.T, root string, pkgs []string, why string) {
	t.Helper()
	walkGo(t, root, parser.ImportsOnly, func(path string, _ *token.FileSet, f *ast.File) {
		for _, imp := range f.Imports {
			got, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkgs {
				if got == p || strings.HasPrefix(got, p+"/") {
					t.Errorf("%s imports %s: %s/ %s", path, got, root, why)
				}
			}
		}
	})
}

// walkGo parses every Go file under root with mode and hands it to visit.
// A root without Go files fails the test.
func walkGo(t *testing.T, root string, mode parser.Mode, visit func(path string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".go" {
			return err
		}
		files++
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		visit(path, fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatalf("no Go files under %s/", root)
	}
}

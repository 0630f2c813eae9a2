//go:build deadcode || runcensus

package retrolock_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The helpers the censuses share: the function walk over internal/, the
// allowlist reader, and a go/types loader for the module's non-test code.

// funcDecl is one function declared in internal/'s non-test files.
type funcDecl struct {
	file       string // slash path relative to the repo root
	start, end int    // body lines, for matching coverage blocks
	lines      int    // length in lines with its doc comment
}

// internalFuncs maps each function declared in internal/'s non-test files
// that build on this platform, keyed "pkg.Name" or "pkg.Recv.Name" with pkg
// relative to retrolock/internal, to its declarations (two for a name that
// build-tagged files declare once each).
func internalFuncs(t *testing.T) map[string][]funcDecl {
	decls := map[string][]funcDecl{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimPrefix(filepath.ToSlash(filepath.Clean(dir)), "internal/")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				key = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			start := fn.Pos()
			if fn.Doc != nil {
				start = fn.Doc.Pos()
			}
			decls[key] = append(decls[key], funcDecl{
				file:  filepath.ToSlash(path),
				start: fset.Position(fn.Pos()).Line,
				end:   fset.Position(fn.End()).Line,
				lines: fset.Position(fn.End()).Line - fset.Position(start).Line + 1,
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no functions in internal/; the walk is broken")
	}
	return decls
}

// recvName is a receiver's type name without pointer or type parameters.
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// allowlist reads testdata/<name>, one "key reason..." line each, and fails
// the test on a line that gives no reason. A missing file is an empty list.
func allowlist(t *testing.T, name string) map[string]bool {
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]bool{}
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if line == "" {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("testdata/%s:%d: %q gives no reason", name, i+1, key)
		}
		allow[key] = true
	}
	return allow
}

// modulePackage is one package of the module, parsed and type-checked from
// its non-test files for this platform.
type modulePackage struct {
	path  string // import path
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loadModule type-checks every package of the module rooted at each of
// dirs (the main module is ".", bench/ is a second module) from its
// non-test source, dependencies first. Each package is checked once: a
// later module's imports of an earlier one's packages resolve to the same
// types, so a field declared in internal/ is the same object wherever it is
// used. The standard library comes from the build cache's export data.
func loadModule(t *testing.T, dirs ...string) (*token.FileSet, []*modulePackage) {
	fset := token.NewFileSet()
	exports := map[string]string{}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok && f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}

	var pkgs []*modulePackage
	for _, mod := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
		cmd.Dir = mod
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list (in %s): %v", mod, err)
		}
		type listed struct {
			ImportPath, Dir, Export string
			GoFiles                 []string
			Standard                bool
		}
		var own []listed
		for dec := json.NewDecoder(strings.NewReader(string(out))); ; {
			var p listed
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if p.Standard {
				exports[p.ImportPath] = p.Export
			} else if checked[p.ImportPath] == nil {
				own = append(own, p)
			}
		}

		for _, p := range own {
			mp := &modulePackage{path: p.ImportPath, info: &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}}
			dir, err := filepath.Rel(wd, p.Dir) // positions print relative to the repo root
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				mp.files = append(mp.files, f)
			}
			conf := types.Config{Importer: imp}
			mp.types, err = conf.Check(p.ImportPath, fset, mp.files, mp.info)
			if err != nil {
				t.Fatalf("type-checking %s: %v", p.ImportPath, err)
			}
			checked[p.ImportPath] = mp.types
			pkgs = append(pkgs, mp)
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("go list found no packages in the module")
	}
	return fset, pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// settle holds a census to its allowlist testdata/<list>. Each flagged key
// the list does not name fails with flaggedf's message, and each line whose
// key is not known (it is gone) or no longer flagged (cleared) fails too,
// so the list cannot outlive what it excuses. kind names what a key is.
func settle(t *testing.T, list string, flagged map[string]bool, known func(key string) bool, flaggedf, cleared, kind string) {
	t.Helper()
	allow := allowlist(t, list)
	var keys []string
	for key := range flagged {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if !allow[key] {
			t.Errorf(flaggedf+"; delete it or name it in testdata/%s with a reason", key, list)
		}
	}
	for key := range allow {
		switch {
		case !known(key):
			t.Errorf("testdata/%s names %s, which is not %s", list, key, kind)
		case !flagged[key]:
			t.Errorf("testdata/%s names %s, but %s", list, key, cleared)
		}
	}
}

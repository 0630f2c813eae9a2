package retrolock_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMakeFuzzRunsEveryFuzzer is the census behind `make fuzz`: it lists
// every func Fuzz* in the module's *_test.go files with go/parser and fails
// unless the Makefile's fuzz recipe runs each one in its own package, so a
// new fuzzer cannot miss CI unnoticed. A recipe line naming a fuzzer that no
// longer exists fails too.
func TestMakeFuzzRunsEveryFuzzer(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	run := map[string]bool{} // "pkg/dir FuzzName"
	inFuzz := false
	for _, line := range strings.Split(string(mk), "\n") {
		if strings.HasPrefix(line, "fuzz:") {
			inFuzz = true
			continue
		}
		if !inFuzz || !strings.HasPrefix(line, "\t") {
			inFuzz = false
			continue
		}
		var pkg, name string
		fields := strings.Fields(line)
		for i, f := range fields {
			switch {
			case strings.HasPrefix(f, "./"):
				pkg = filepath.Clean(f)
			case f == "-fuzz" && i+1 < len(fields):
				name = fields[i+1]
			}
		}
		if pkg == "" || name == "" {
			t.Fatalf("Makefile fuzz recipe line %q names no package and -fuzz target", strings.TrimSpace(line))
		}
		run[pkg+" "+name] = true
	}
	if len(run) == 0 {
		t.Fatal("Makefile has no fuzz recipe")
	}

	var missing []string
	found := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir // another module; `make fuzz` runs from this one
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Fuzz") {
				continue
			}
			key := filepath.Dir(path) + " " + fn.Name.Name
			found[key] = true
			if !run[key] {
				missing = append(missing, key)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range run {
		if !found[key] {
			missing = append(missing, key+" (in the recipe, not in the tree)")
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("make fuzz does not match the tree's fuzzers: %s", key)
	}
	if len(found) == 0 {
		t.Fatal("found no Fuzz functions; the walk is broken")
	}
}

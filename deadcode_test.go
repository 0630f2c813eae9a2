//go:build deadcode

package retrolock_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryInternalFuncIsLinked is the linker census behind `make
// deadcode`. The shipped binaries define the program: it builds every main
// package (cmd/*, examples/*) and the bench/ module with inlining off, so
// that every function the linker keeps leaves a symbol, lists their text
// symbols with `go tool nm`, and compares them with the function
// declarations in internal/'s non-test files for this platform. A function
// no binary links fails the test unless testdata/unlinked.txt names it with
// a reason; a line there whose function is now linked or gone fails too.
func TestEveryInternalFuncIsLinked(t *testing.T) {
	decls := internalFuncs(t)
	linked := linkedFuncs(t)

	allow := map[string]bool{}
	raw, err := os.ReadFile(filepath.Join("testdata", "unlinked.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("testdata/unlinked.txt:%d: %q gives no reason", i+1, key)
		}
		allow[key] = true
	}

	var unlinked []string
	for key := range decls {
		if !linked[key] {
			unlinked = append(unlinked, key)
		}
	}
	sort.Strings(unlinked)
	lines := 0
	for _, key := range unlinked {
		lines += decls[key]
		if !allow[key] {
			t.Errorf("no shipped binary links %s; delete it or name it in testdata/unlinked.txt with a reason", key)
		}
	}
	for key := range allow {
		switch {
		case decls[key] == 0:
			t.Errorf("testdata/unlinked.txt names %s, which is not a function in internal/", key)
		case linked[key]:
			t.Errorf("testdata/unlinked.txt names %s, which a shipped binary now links", key)
		}
	}
	t.Logf("%d functions in internal/, %d linked, %d unlinked (%d lines with doc comments)",
		len(decls), len(decls)-len(unlinked), len(unlinked), lines)
}

// internalFuncs maps each function declared in internal/'s non-test files
// that build on this platform, keyed "pkg.Name" or "pkg.Recv.Name" with pkg
// relative to retrolock/internal, to its length in lines with its doc comment.
func internalFuncs(t *testing.T) map[string]int {
	decls := map[string]int{}
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
			decls[key] += fset.Position(fn.End()).Line - fset.Position(start).Line + 1
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

// linkedFuncs builds the shipped binaries without inlining and returns the
// keys, in internalFuncs' form, of their retrolock/internal text symbols
// (and of each symbol's first name alone, for closures such as F.func1).
func linkedFuncs(t *testing.T) map[string]bool {
	bin := t.TempDir()
	run := func(dir string, args ...string) []byte {
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go %s (in %s): %v\n%s", strings.Join(args, " "), dir, err, out)
		}
		return out
	}
	run(".", "build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	run("bench", "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "bench"), ".")
	bins, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) < 2 {
		t.Fatalf("built %d binaries; the build is broken", len(bins))
	}

	const prefix = "retrolock/internal/"
	linked := map[string]bool{}
	for _, b := range bins {
		sc := bufio.NewScanner(bytes.NewReader(run(".", "tool", "nm", filepath.Join(bin, b.Name()))))
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) < 3 || (fields[1] != "T" && fields[1] != "t") || !strings.HasPrefix(fields[2], prefix) {
				continue
			}
			// retrolock/internal/obs/history.(*Log[...]).Open.func1 → obs/history, Log.Open.func1
			sym := fields[2][len(prefix):]
			slash := strings.LastIndex(sym, "/") + 1
			dot := strings.Index(sym[slash:], ".")
			if dot < 0 {
				continue
			}
			pkg, rest := sym[:slash+dot], stripSymbol(sym[slash+dot+1:])
			parts := strings.SplitN(rest, ".", 3)
			linked[pkg+"."+parts[0]] = true
			if len(parts) > 1 {
				linked[pkg+"."+parts[0]+"."+parts[1]] = true
			}
		}
	}
	return linked
}

// stripSymbol drops a symbol's type arguments, pointer-receiver parentheses
// and method-value suffix: "(*Ring[go.shape.int]).Push-fm" → "Ring.Push".
func stripSymbol(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth > 0, r == '(', r == ')', r == '*':
		default:
			b.WriteRune(r)
		}
	}
	return strings.ReplaceAll(b.String(), "-fm", "")
}

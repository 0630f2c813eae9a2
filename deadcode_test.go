//go:build deadcode

package retrolock_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
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

	unlinked := map[string]bool{}
	lines := 0
	for key, ds := range decls {
		if !linked[key] {
			unlinked[key] = true
			for _, d := range ds {
				lines += d.lines
			}
		}
	}
	settle(t, "unlinked.txt", unlinked, func(key string) bool { return decls[key] != nil },
		"no shipped binary links %s", "a shipped binary now links it", "a function in internal/")
	t.Logf("%d functions in internal/, %d linked, %d unlinked (%d lines with doc comments)",
		len(decls), len(decls)-len(unlinked), len(unlinked), lines)
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

// TestNoFieldIsWriteOnly is the write-only pass of `make deadcode`. It
// type-checks the module's non-test code and fails on an unexported struct
// field that the code assigns and never reads: state that only costs. A
// write is an assignment, an increment or an element store through the
// field, a composite-literal key, or a sync/atomic Add or Store whose result
// is dropped; reading the field on the right of its own assignment
// (x.f = append(x.f, v)) serves only that write. Fields of a struct that is
// compared or used as a map key are read by the comparison. Unexported
// fields are out of encoding/json's and expvar's reach, so the pass needs
// no exemptions by type; testdata/writeonly.txt names, with a reason, a
// field that is kept anyway ("pkg.Type.field", pkg relative to the module).
func TestNoFieldIsWriteOnly(t *testing.T) {
	fset, pkgs := loadModule(t)
	fields := map[*types.Var]string{} // unexported fields declared in the module, by key
	written := map[*types.Var]token.Pos{}
	read := map[*types.Var]bool{}
	for _, p := range pkgs {
		declaredFields(p, fields)
	}
	for _, p := range pkgs {
		uses := fieldUses(p.info, p.files)
		for id, obj := range p.info.Uses {
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() {
				continue
			}
			switch uses[id] {
			case useWrite:
				if _, seen := written[v.Origin()]; !seen {
					written[v.Origin()] = id.Pos()
				}
			case useRead:
				read[v.Origin()] = true
			}
		}
		markImplicitReads(p.info, read)
	}

	flagged := map[string]bool{}
	known := map[string]bool{}
	for v, key := range fields {
		known[key] = true
		if pos, ok := written[v]; ok && !read[v] {
			flagged[key] = true
			t.Logf("%s: %s is written and never read", fset.Position(pos), key)
		}
	}
	settle(t, "writeonly.txt", flagged, func(key string) bool { return known[key] },
		"%s is written and never read", "it is read now", "an unexported field in the module")
	t.Logf("%d unexported fields in %d packages, %d written and never read", len(fields), len(pkgs), len(flagged))
}

// declaredFields adds p's unexported struct fields to fields, keyed
// "pkg.Owner.field": pkg is the import path relative to the module, Owner
// the type that declares the struct (or the function or variable holding an
// unnamed one).
func declaredFields(p *modulePackage, fields map[*types.Var]string) {
	pkg := strings.TrimPrefix(strings.TrimPrefix(p.path, "retrolock"), "/")
	var collect func(n ast.Node, owner string)
	collect = func(n ast.Node, owner string) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				collect(n.Type, n.Name.Name)
				return false
			case *ast.StructType:
				for _, fl := range n.Fields.List {
					for _, id := range fl.Names {
						if v, ok := p.info.Defs[id].(*types.Var); ok && !v.Exported() && v.Name() != "_" {
							fields[v] = pkg + "." + owner + "." + id.Name
						}
					}
				}
			}
			return true
		})
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				owner := d.Name.Name
				if d.Recv != nil {
					owner = recvName(d.Recv.List[0].Type) + "." + owner
				}
				collect(d, owner)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					owner := ""
					if vs, ok := spec.(*ast.ValueSpec); ok {
						owner = vs.Names[0].Name
					}
					collect(spec, owner)
				}
			}
		}
	}
}

type fieldUse int

const (
	useRead  fieldUse = iota // the zero value: any use not listed below
	useWrite                 // the field is assigned or stored through
	useSelf                  // read on the right of the field's own assignment
)

// fieldUses classifies the field selectors and keys in files that are not
// plain reads. Every identifier it does not return is a read.
func fieldUses(info *types.Info, files []*ast.File) map[*ast.Ident]fieldUse {
	uses := map[*ast.Ident]fieldUse{}
	field := func(id *ast.Ident) *types.Var {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	// write marks the fields an assignment to e stores into: x.f, and x.f
	// again in x.f.g, x.f[i] or x.f[k] when x.f holds the struct, array,
	// slice or map stored into (not a pointer, whose target is not x.f).
	write := func(e ast.Expr) (top *types.Var) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				v := field(x.Sel)
				if v == nil {
					return top
				}
				uses[x.Sel] = useWrite
				if top == nil {
					top = v
				}
				if _, ptr := info.TypeOf(x.X).Underlying().(*types.Pointer); ptr {
					return top
				}
				e = x.X
			case *ast.IndexExpr:
				if _, ptr := info.TypeOf(x.X).Underlying().(*types.Pointer); ptr {
					return top
				}
				e = x.X
			default:
				return top
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					v := write(lhs)
					if v == nil || len(n.Rhs) != len(n.Lhs) {
						continue
					}
					ast.Inspect(n.Rhs[i], func(m ast.Node) bool {
						if sel, ok := m.(*ast.SelectorExpr); ok && field(sel.Sel) == v {
							uses[sel.Sel] = useSelf
						}
						return true
					})
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					if n.Key != nil {
						write(n.Key)
					}
					if n.Value != nil {
						write(n.Value)
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok && field(id) != nil {
					uses[id] = useWrite
				}
			case *ast.ExprStmt:
				// x.f.Add(1) or x.f.Store(v) on a sync/atomic value.
				call, ok := n.X.(*ast.CallExpr)
				if !ok {
					break
				}
				m, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (m.Sel.Name != "Add" && m.Sel.Name != "Store") {
					break
				}
				if fn, ok := info.Uses[m.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
					write(m.X)
				}
			}
			return true
		})
	}
	return uses
}

// markImplicitReads marks the fields read without being named: the
// embedded fields a promoted selector passes through, and every field of a
// struct type that is compared with == or != or used as a map key.
func markImplicitReads(info *types.Info, read map[*types.Var]bool) {
	var all func(t types.Type)
	seen := map[types.Type]bool{}
	all = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := range u.NumFields() {
				read[u.Field(i).Origin()] = true
				all(u.Field(i).Type())
			}
		case *types.Array:
			all(u.Elem())
		}
	}
	for _, sel := range info.Selections {
		t := sel.Recv()
		for _, ix := range sel.Index()[:len(sel.Index())-1] {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			read[st.Field(ix).Origin()] = true
			t = st.Field(ix).Type()
		}
	}
	for e, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			all(m.Key())
		}
		if b, ok := e.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
			all(info.TypeOf(b.X))
			all(info.TypeOf(b.Y))
		}
	}
}

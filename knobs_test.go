//go:build deadcode

package retrolock_test

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestEveryKnobIsTurned is the knob census of `make deadcode`: a setting
// the shipped program never changes is a constant, not a knob. It has two
// passes over the module's non-test code and the bench/ module's, both
// type-checked in one universe.
//
// Fields: an exported field of an internal/ struct whose name ends in
// Config, Options, Spec, Params or Model fails unless non-test code of the
// main module assigns it (a composite-literal key, an assignment or a store
// through it). A field that only tests or only bench/ set fails too, and so
// does one that only its own package's withDefaults fills: a default that
// nothing overrides is a constant (TestKnobCensusRule pins the rule).
//
// Flags: a flag that a cmd/ package defines fails unless a command line
// passes it: in README.md, EXPERIMENTS.md or docs/, in the Makefile or a CI
// workflow, or as an argument in the command's own tests.
//
// testdata/knobs.txt names, with a reason, a finding kept anyway
// ("pkg.Type.Field" with pkg relative to internal/, or "cmd/name:-flag");
// a line whose knob is now turned, or gone, fails.
func TestEveryKnobIsTurned(t *testing.T) {
	fset, pkgs := loadModule(t, ".", "bench")
	known := map[string]bool{}
	flagged := map[string]bool{}

	fields, unturned := knobCensus(pkgs)
	for v, key := range fields {
		known[key] = true
		if why, ok := unturned[v]; ok {
			flagged[key] = true
			t.Logf("%s: %s is %s", fset.Position(v.Pos()), key, why)
		}
	}

	docs := commandLines(t)
	nflags := 0
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, "retrolock/cmd/") {
			continue
		}
		cmd := p.path[strings.LastIndex(p.path, "/")+1:]
		passed := testArgs(t, filepath.Join("cmd", cmd))
		for name, pos := range definedFlags(p) {
			nflags++
			key := "cmd/" + cmd + ":-" + name
			known[key] = true
			if passed[name] || documented(docs, cmd, name) {
				continue
			}
			flagged[key] = true
			t.Logf("%s: %s -%s is passed by no documented command line, Makefile or CI line, or command test", fset.Position(pos), cmd, name)
		}
	}

	settle(t, "knobs.txt", flagged, func(key string) bool { return known[key] },
		"%s is a knob nothing turns", "it is turned now", "a config field or command flag")
	t.Logf("%d config fields and %d flags, %d not turned", len(fields), nflags, len(flagged))
}

// TestKnobCensusRule feeds knobCensus a synthetic module: a Config field
// that only its own package's withDefaults fills is unturned, and a write
// anywhere else in the main module's non-test code turns it.
func TestKnobCensusRule(t *testing.T) {
	const knob = `package knob

type Config struct{ X int }

func (c Config) withDefaults() Config {
	if c.X == 0 {
		c.X = 3
	}
	return c
}

func Use(c Config) int { return c.withDefaults().X }
`
	for _, tc := range []struct {
		name, path, src string
		want            string // why X is unturned; "" when it is turned
	}{
		{"own defaults only", "retrolock/cmd/app", `package app

import "retrolock/internal/knob"

var _ = knob.Use(knob.Config{})
`, "set by no non-test code outside its package's withDefaults"},
		{"set by a command", "retrolock/cmd/app", `package app

import "retrolock/internal/knob"

var _ = knob.Use(knob.Config{X: 4})
`, ""},
		{"another package's defaults", "retrolock/internal/wrap", `package wrap

import "retrolock/internal/knob"

type Options struct{ Knob knob.Config }

func (o Options) withDefaults() Options {
	o.Knob.X = 5
	return o
}

var _ = knob.Use(Options{}.withDefaults().Knob)
`, ""},
		{"set only by bench/", "retrolock/bench", `package bench

import "retrolock/internal/knob"

var _ = knob.Use(knob.Config{X: 4})
`, "set only by bench/"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pkgs := checkSources(t, [][2]string{{"retrolock/internal/knob", knob}, {tc.path, tc.src}})
			fields, unturned := knobCensus(pkgs)
			var x *types.Var
			for v, key := range fields {
				if key == "knob.Config.X" {
					x = v
				}
			}
			if x == nil {
				t.Fatalf("census fields %v lack knob.Config.X", fields)
			}
			if got := unturned[x]; got != tc.want {
				t.Errorf("knob.Config.X unturned as %q, want %q", got, tc.want)
			}
		})
	}
}

// checkSources type-checks one file per package, in order, each given as
// {import path, source}; a package may import the ones before it.
func checkSources(t *testing.T, srcs [][2]string) []*modulePackage {
	fset := token.NewFileSet()
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return nil, fmt.Errorf("no package %s", path)
	})
	var pkgs []*modulePackage
	for _, src := range srcs {
		f, err := parser.ParseFile(fset, src[0]+".go", src[1], parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		mp := &modulePackage{path: src[0], files: []*ast.File{f}, info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		conf := types.Config{Importer: imp}
		if mp.types, err = conf.Check(src[0], fset, mp.files, mp.info); err != nil {
			t.Fatal(err)
		}
		checked[src[0]] = mp.types
		pkgs = append(pkgs, mp)
	}
	return pkgs
}

// knobCensus returns the configuration fields of pkgs' internal/ packages,
// keyed as in knobFields, and why each one nothing turns is unturned. A
// write counts when it is in the main module's non-test code, outside the
// withDefaults function or method of the field's own package: filling a
// zero field with the package's default is the default, not a turn.
func knobCensus(pkgs []*modulePackage) (fields, unturned map[*types.Var]string) {
	fields = map[*types.Var]string{}
	for _, p := range pkgs {
		if strings.HasPrefix(p.path, "retrolock/internal/") {
			knobFields(p, fields)
		}
	}
	set, benchSet := map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, p := range pkgs {
		into := set
		if strings.HasPrefix(p.path, "retrolock/bench") {
			into = benchSet
		}
		fills := defaultFills(p)
		for id, use := range fieldUses(p.info, p.files) {
			v, ok := p.info.Uses[id].(*types.Var)
			if !ok || use != useWrite || v.Pkg() == p.types && fills(id.Pos()) {
				continue
			}
			into[v.Origin()] = true
		}
	}
	unturned = map[*types.Var]string{}
	for v := range fields {
		switch {
		case set[v]:
		case benchSet[v]:
			unturned[v] = "set only by bench/"
		default:
			unturned[v] = "set by no non-test code outside its package's withDefaults"
		}
	}
	return fields, unturned
}

// defaultFills reports whether pos is inside a function or method of p
// named withDefaults.
func defaultFills(p *modulePackage) func(pos token.Pos) bool {
	var bodies []*ast.FuncDecl
	for _, f := range p.files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "withDefaults" {
				bodies = append(bodies, fn)
			}
		}
	}
	return func(pos token.Pos) bool {
		for _, fn := range bodies {
			if fn.Pos() <= pos && pos < fn.End() {
				return true
			}
		}
		return false
	}
}

// knobSuffixes name the structs whose exported fields are a caller's
// configuration.
var knobSuffixes = []string{"Config", "Options", "Spec", "Params", "Model"}

// knobFields adds p's configuration fields to fields, keyed "pkg.Type.Field"
// with pkg relative to retrolock/internal.
func knobFields(p *modulePackage, fields map[*types.Var]string) {
	pkg := strings.TrimPrefix(p.path, "retrolock/internal/")
	for _, f := range p.files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !hasKnobSuffix(ts.Name.Name) {
					continue
				}
				for _, fl := range st.Fields.List {
					names := fl.Names
					if names == nil { // embedded: the field is named after its type
						if v, ok := p.info.Defs[embeddedIdent(fl.Type)].(*types.Var); ok && v.Exported() {
							fields[v] = pkg + "." + ts.Name.Name + "." + v.Name()
						}
					}
					for _, id := range names {
						if v, ok := p.info.Defs[id].(*types.Var); ok && v.Exported() {
							fields[v] = pkg + "." + ts.Name.Name + "." + id.Name
						}
					}
				}
			}
		}
	}
}

func hasKnobSuffix(name string) bool {
	for _, s := range knobSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// embeddedIdent is the identifier naming an embedded field's type.
func embeddedIdent(x ast.Expr) *ast.Ident {
	switch e := x.(type) {
	case *ast.StarExpr:
		return embeddedIdent(e.X)
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.Ident:
		return e
	}
	return nil
}

// flagDefs are the package flag functions and *flag.FlagSet methods that
// define a flag, with the index of the argument holding its name.
var flagDefs = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0,
	"Uint": 0, "Uint64": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1, "TextVar": 1,
}

// definedFlags returns the name and position of every flag p defines.
func definedFlags(p *modulePackage) map[string]token.Pos {
	flags := map[string]token.Pos{}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.info.Uses[sel.Sel].(*types.Func)
			arg, def := flagDefs[sel.Sel.Name]
			if !ok || !def || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || arg >= len(call.Args) {
				return true
			}
			if tv := p.info.Types[call.Args[arg]]; tv.Value != nil && tv.Value.Kind() == constant.String {
				flags[constant.StringVal(tv.Value)] = call.Pos()
			}
			return true
		})
	}
	return flags
}

// commandLines returns the lines of the documents, the Makefile and the CI
// workflows, with backslash continuations joined, that may hold a command
// line.
func commandLines(t *testing.T) []string {
	paths := []string{"README.md", "EXPERIMENTS.md", "Makefile"}
	for _, glob := range []string{"docs/*.md", ".github/workflows/*.yml"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	var lines []string
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := strings.ReplaceAll(string(raw), "\\\n", " ")
		lines = append(lines, strings.Split(text, "\n")...)
	}
	return lines
}

// documented reports whether one of lines runs cmd with -flag: the command's
// name as a word, then whitespace-separated arguments, one of them the flag.
func documented(lines []string, cmd, flag string) bool {
	re := regexp.MustCompile(`(^|[\s/` + "`" + `])` + regexp.QuoteMeta(cmd) + `(\s+\S+)*?\s+--?` +
		regexp.QuoteMeta(flag) + `(=\S*)?(\s|$|` + "`" + `)`)
	for _, line := range lines {
		if strings.Contains(line, cmd) && re.MatchString(line) {
			return true
		}
	}
	return false
}

// testArgs returns the flag names that dir's test files pass as arguments:
// string literals "-name" or "-name=value".
func testArgs(t *testing.T, dir string) map[string]bool {
	names := map[string]bool{}
	tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range tests {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil || !strings.HasPrefix(s, "-") {
				return true
			}
			name, _, _ := strings.Cut(strings.TrimLeft(s, "-"), "=")
			names[name] = true
			return true
		})
	}
	return names
}

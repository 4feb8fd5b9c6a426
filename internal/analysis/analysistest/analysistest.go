// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against expectations embedded in the fixtures, in the
// style of golang.org/x/tools/go/analysis/analysistest:
//
//	for k := range m { // want "range over map"
//
// A want comment holds one or more double-quoted regular expressions; a
// diagnostic on that line must match one of them, every want must be
// matched by some diagnostic, and any unmatched diagnostic fails the
// test. Fixtures import only the standard library, so the harness
// type-checks them against GOROOT source without loading the module.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"physdes/internal/analysis"
)

var wantRE = regexp.MustCompile(`//\s*want((?:\s+"(?:[^"\\]|\\.)*")+)\s*$`)
var quotedRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// Run applies a to the fixture package in dir (conventionally
// "testdata/src/<path>", relative to the test's working directory) and
// reports mismatches on t. As in x/tools, the fixture's import path is
// its directory below testdata/src, so a fixture under
// testdata/src/internal/sampling exercises the rules an analyzer scopes
// to internal/sampling. AppliesTo is not consulted.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	fset := token.NewFileSet()
	files, err := parseFixture(fset, dir)
	if err != nil {
		t.Fatalf("parsing fixture %s: %v", dir, err)
	}
	if len(files) == 0 {
		t.Fatalf("fixture %s holds no Go files", dir)
	}
	info := analysis.NewInfo()
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error:    func(error) {},
	}
	path := filepath.ToSlash(dir)
	if i := strings.LastIndex(path, "testdata/src/"); i >= 0 {
		path = path[i+len("testdata/src/"):]
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}
	pass := &analysis.Pass{
		Analyzer: a,
		Fset:     fset,
		Files:    files,
		Pkg:      tpkg,
		Info:     info,
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	checkExpectations(t, fset, files, pass.Diagnostics())
}

// parseFixture parses every .go file directly in dir, in name order.
func parseFixture(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

type expectation struct {
	file     string
	line     int
	patterns []*regexp.Regexp
	matched  []bool
}

// collectWants extracts // want expectations from fixture comments.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				exp := &expectation{file: pos.Filename, line: pos.Line}
				for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(q[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, q[1], err)
					}
					exp.patterns = append(exp.patterns, re)
					exp.matched = append(exp.matched, false)
				}
				wants = append(wants, exp)
			}
		}
	}
	return wants
}

// checkExpectations matches diagnostics against want comments 1:1.
func checkExpectations(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, files)
	byLine := map[[2]any]*expectation{}
	for _, w := range wants {
		byLine[[2]any{w.file, w.line}] = w
	}
	for _, d := range diags {
		w := byLine[[2]any{d.Pos.Filename, d.Pos.Line}]
		matched := false
		if w != nil {
			for i, re := range w.patterns {
				if !w.matched[i] && re.MatchString(d.Message) {
					w.matched[i] = true
					matched = true
					break
				}
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		for i, ok := range w.matched {
			if !ok {
				t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.patterns[i])
			}
		}
	}
}

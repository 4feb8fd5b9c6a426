// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary, sized for this repository's
// lint suite. The comparison primitive's statistical guarantees
// (Pr(CS) ≥ α) and the batch layer's bit-identical parallel evaluation
// only hold if every result-affecting code path is reproducible under a
// seed; the analyzers built on this package turn those invariants from
// comments into build failures.
//
// The shape mirrors x/tools so the suite can migrate wholesale if that
// module ever becomes available: an Analyzer holds a Run function over a
// Pass; a Pass carries one type-checked package and a Report sink.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name is a short lower-case identifier used in diagnostics.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// AppliesTo reports whether the analyzer is meaningful for the
	// package with the given import path. A nil AppliesTo means every
	// package. The driver consults it; the fixture harness does not.
	// Test variants of a package are matched by their base import path.
	AppliesTo func(pkgPath string) bool
	// IncludeTests extends the check to _test.go files. Most analyzers
	// leave it false: tests legitimately use fixed seeds, wall clocks
	// and ad-hoc trace names. Checks whose invariants hold everywhere
	// (lock discipline, zero-alloc contracts) opt in.
	IncludeTests bool
	// Run performs the check, reporting findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the files the analyzer reports on. For a test variant of
	// a package this is only the _test.go files (the base files were
	// already analyzed under the base package), and it is pre-filtered
	// by Analyzer.IncludeTests.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// ModuleRoot is the directory containing go.mod, for analyzers that
	// consult repository documents (e.g. tracenames reads DESIGN.md).
	// Empty in ad-hoc test harness runs unless the harness sets it.
	ModuleRoot string
	// Shared is the per-run state shared by every pass of a driver run:
	// the full loaded package set plus a memo space. The interprocedural
	// flow layer caches its module-wide call graph here so each analyzer
	// reuses one set of function summaries instead of rebuilding them.
	Shared *Shared

	diags []Diagnostic
}

// Shared is driver-run-scoped state handed to every Pass.
type Shared struct {
	// Packages is every loaded package of the run, including test
	// variants, in deterministic order.
	Packages []*Package

	mu   sync.Mutex
	vals map[string]any
}

// NewShared prepares shared state over the given package set.
func NewShared(pkgs []*Package) *Shared {
	return &Shared{Packages: pkgs, vals: map[string]any{}}
}

// Memo returns the value cached under key, computing and caching it via
// build on first use. Analyzers use it to share expensive module-wide
// state (the flow call graph) across passes.
func (s *Shared) Memo(key string, build func() any) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.vals[key]; ok {
		return v
	}
	v := build()
	s.vals[key] = v
	return v
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings reported so far, in file/line order.
func (p *Pass) Diagnostics() []Diagnostic {
	out := make([]Diagnostic, len(p.diags))
	copy(out, p.diags)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}

// Preorder walks every file in the pass in depth-first preorder.
func (p *Pass) Preorder(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// AnnotationPrefix introduces every suppression comment understood by the
// suite: //physdes:<marker> <justification>.
const AnnotationPrefix = "//physdes:"

// Annotations collects suppression comments of the form
//
//	//physdes:<marker> <justification>
//
// from file, keyed by the line the comment appears on. The value is the
// justification text (may be empty — analyzers reject that themselves,
// so the omission is a finding at the annotated site rather than a
// silent pass).
func Annotations(fset *token.FileSet, file *ast.File, marker string) map[int]string {
	want := AnnotationPrefix + marker
	out := map[int]string{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, want) {
				continue
			}
			rest := text[len(want):]
			// Require an exact marker match: //physdes:orderinsensitivex
			// must not satisfy orderinsensitive.
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue
			}
			line := fset.Position(c.Pos()).Line
			out[line] = strings.TrimSpace(rest)
		}
	}
	return out
}

// Annotated looks up an annotation covering the node starting at pos: the
// comment may sit on the same line or on the line immediately above.
// It returns the justification and whether an annotation was found.
func Annotated(ann map[int]string, fset *token.FileSet, pos token.Pos) (string, bool) {
	line := fset.Position(pos).Line
	if r, ok := ann[line]; ok {
		return r, true
	}
	if r, ok := ann[line-1]; ok {
		return r, true
	}
	return "", false
}

// IsPkgCall reports whether call is a call of the package-level function
// pkgPath.name, using type information to resolve the qualifier (so a
// renamed import still matches and a local variable named "time" does
// not).
func IsPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

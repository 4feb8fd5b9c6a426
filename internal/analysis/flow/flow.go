// Package flow is the interprocedural layer of the lint suite: a
// module-wide call graph with one summary per function (context
// parameters received, callees invoked, error results, nondeterminism
// of returned values, allocation behavior) plus a small forward
// dataflow/taint engine over the AST+types information the loader
// already produces.
//
// An intraprocedural check looks at one function at a time; the
// invariants the suite guards (seed-reproducibility, cancellation
// threading, never dropping oracle errors, zero-alloc hot paths) are
// properties of call *chains*. This package computes the chain-level
// facts once per driver run — cached in analysis.Shared — and the
// ctxflow, errdrop, determtaint and zeroalloc analyzers read them.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"

	"physdes/internal/analysis"
)

// Call is one static call site inside a function body.
type Call struct {
	Expr *ast.CallExpr
	// Callee is the statically resolved target: a package function or a
	// concrete method. Nil for dynamic calls (function values, interface
	// methods), builtins and conversions.
	Callee *types.Func
}

// FuncInfo is the per-function summary node of the call graph.
type FuncInfo struct {
	Decl *ast.FuncDecl
	Obj  *types.Func
	File *ast.File
	Pkg  *analysis.Package
	// IsTest marks functions declared in _test.go files or test-variant
	// units.
	IsTest bool

	// CtxParams are the declared parameters of type context.Context.
	CtxParams []*types.Var
	// Calls is every call site in the body, in source order, including
	// calls inside nested function literals.
	Calls []Call
	// ReturnsError reports whether the signature's results include an
	// error (directly or through a named function type's contract this
	// is what errdrop keys on).
	ReturnsError bool

	// Zeroalloc is set when the declaration carries the
	// //physdes:zeroalloc contract annotation.
	Zeroalloc bool

	// TaintedReturn reports that some return statement's value derives
	// from a nondeterminism source (wall clock, global RNG, map
	// iteration order) — directly or through callees. TaintReason names
	// the source. Computed to fixpoint over the module call graph.
	TaintedReturn bool
	TaintReason   string

	// Allocates reports that the function is known or assumed to
	// allocate: it contains an unsuppressed allocation site, calls an
	// allocating module function, or calls an unresolvable/stdlib
	// function outside the no-alloc allowlist. AllocReason names the
	// first cause. Functions carrying the zeroalloc contract summarize
	// as non-allocating — their own violations are reported at their
	// declaration by the zeroalloc analyzer.
	Allocates   bool
	AllocReason string

	allocSites []AllocSite
}

// Index is the module-wide call graph: every function of every loaded
// compilation unit, summaries computed to fixpoint.
type Index struct {
	Fset *token.FileSet

	byObj  map[*types.Func]*FuncInfo
	byFile map[*ast.File][]*FuncInfo
	all    []*FuncInfo

	// siblings maps "<pkg>.<recv>.<name>" to the function, for
	// Ctx-variant lookups.
	siblings map[string]*types.Func

	annMu sync.Mutex
	anns  map[annKey]map[int]string
}

type annKey struct {
	file   *ast.File
	marker string
}

const memoKey = "flow.Index"

// Of returns the module call graph for the pass's driver run, building
// it on first use and caching it in pass.Shared. A pass without shared
// state (ad-hoc harnesses) gets an index over just its own files.
func Of(pass *analysis.Pass) *Index {
	if pass.Shared == nil {
		pkg := &analysis.Package{
			Path:     pass.Pkg.Path(),
			BasePath: pass.Pkg.Path(),
			Files:    pass.Files,
			AllFiles: pass.Files,
			Types:    pass.Pkg,
			Info:     pass.Info,
		}
		return build(pass.Fset, []*analysis.Package{pkg})
	}
	return pass.Shared.Memo(memoKey, func() any {
		return build(pass.Fset, pass.Shared.Packages)
	}).(*Index)
}

// build constructs the index and runs every summary to fixpoint.
func build(fset *token.FileSet, pkgs []*analysis.Package) *Index {
	ix := &Index{
		Fset:     fset,
		byObj:    map[*types.Func]*FuncInfo{},
		byFile:   map[*ast.File][]*FuncInfo{},
		siblings: map[string]*types.Func{},
		anns:     map[annKey]map[int]string{},
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.AllFiles {
			isTestFile := pkg.Test || isTestFilename(fset, file)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fi := &FuncInfo{
					Decl:   fd,
					Obj:    obj,
					File:   file,
					Pkg:    pkg,
					IsTest: isTestFile,
				}
				fi.summarizeSignature()
				fi.collectCalls(pkg.Info)
				_, fi.Zeroalloc = ix.FuncAnnotation(fi, ZeroallocMarker)
				ix.byObj[obj] = fi
				ix.byFile[file] = append(ix.byFile[file], fi)
				ix.all = append(ix.all, fi)
				ix.siblings[siblingKey(obj)] = obj
			}
		}
	}
	sort.Slice(ix.all, func(i, j int) bool { return ix.all[i].Decl.Pos() < ix.all[j].Decl.Pos() })
	ix.computeAllocSummaries()
	ix.computeTaintSummaries()
	return ix
}

func isTestFilename(fset *token.FileSet, file *ast.File) bool {
	return strings.HasSuffix(fset.Position(file.Package).Filename, "_test.go")
}

// Lookup returns the summary for a statically resolved function, or nil
// for functions outside the loaded module (stdlib).
func (ix *Index) Lookup(fn *types.Func) *FuncInfo {
	if fn == nil {
		return nil
	}
	return ix.byObj[fn]
}

// PassFuncs returns the summaries of the functions declared in the
// pass's (already test-filtered) file list, in source order. A base
// file shared with a test-variant unit appears in two compilation
// units; only the summaries of the pass's own unit are returned, so no
// function is analyzed (or reported) twice.
func (ix *Index) PassFuncs(pass *analysis.Pass) []*FuncInfo {
	var out []*FuncInfo
	for _, f := range pass.Files {
		for _, fi := range ix.byFile[f] {
			if fi.Pkg.Types == pass.Pkg {
				out = append(out, fi)
			}
		}
	}
	return out
}

// Funcs returns every function of the module in deterministic order.
func (ix *Index) Funcs() []*FuncInfo { return ix.all }

// CtxVariant returns the "FooCtx" sibling of a ctx-less function —
// same package, same receiver type, name + "Ctx", accepting a
// context.Context — or nil.
func (ix *Index) CtxVariant(fn *types.Func) *types.Func {
	if fn == nil || hasCtxParam(fn) {
		return nil
	}
	sib := ix.siblings[siblingKey(fn)+"Ctx"]
	if sib != nil && hasCtxParam(sib) {
		return sib
	}
	return nil
}

// siblingKey identifies a function by package, receiver type and name.
func siblingKey(fn *types.Func) string {
	key := ""
	if pkg := fn.Pkg(); pkg != nil {
		key = pkg.Path() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := types.Unalias(t).(*types.Named); ok {
			key += n.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// Annotations returns the //physdes:<marker> comments of a file, keyed
// by line, memoized for the life of the index.
func (ix *Index) Annotations(file *ast.File, marker string) map[int]string {
	ix.annMu.Lock()
	defer ix.annMu.Unlock()
	k := annKey{file, marker}
	if m, ok := ix.anns[k]; ok {
		return m
	}
	m := analysis.Annotations(ix.Fset, file, marker)
	ix.anns[k] = m
	return m
}

// FuncAnnotation looks for a //physdes:<marker> annotation attached to
// a function declaration: on the declaration line, the line above, or
// anywhere in its doc comment.
func (ix *Index) FuncAnnotation(fi *FuncInfo, marker string) (string, bool) {
	ann := ix.Annotations(fi.File, marker)
	if r, ok := analysis.Annotated(ann, ix.Fset, fi.Decl.Pos()); ok {
		return r, true
	}
	if fi.Decl.Doc != nil {
		for _, c := range fi.Decl.Doc.List {
			if r, ok := ann[ix.Fset.Position(c.Pos()).Line]; ok {
				return r, true
			}
		}
	}
	return "", false
}

// SiteAnnotation looks for a //physdes:<marker> annotation covering pos
// within the function's file.
func (ix *Index) SiteAnnotation(fi *FuncInfo, marker string, pos token.Pos) (string, bool) {
	return analysis.Annotated(ix.Annotations(fi.File, marker), ix.Fset, pos)
}

// summarizeSignature fills CtxParams and ReturnsError from the type.
func (fi *FuncInfo) summarizeSignature() {
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if IsContextType(params.At(i).Type()) {
			fi.CtxParams = append(fi.CtxParams, params.At(i))
		}
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if IsErrorType(results.At(i).Type()) {
			fi.ReturnsError = true
		}
	}
}

// collectCalls records every call site in the body in source order.
func (fi *FuncInfo) collectCalls(info *types.Info) {
	if fi.Decl.Body == nil {
		return
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fi.Calls = append(fi.Calls, Call{Expr: call, Callee: StaticCallee(info, call)})
		return true
	})
}

// StaticCallee resolves a call expression to its target function when
// that target is static: a package-level function, a concrete method,
// or a generic instantiation thereof. Dynamic calls (function values,
// interface methods), builtins and conversions resolve to nil.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				fn, _ := sel.Obj().(*types.Func)
				// Interface method calls are dynamic.
				if fn != nil && isInterfaceRecv(fn) {
					return nil
				}
				return fn
			}
			return nil
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			fn, _ := info.Uses[id].(*types.Func)
			return fn
		}
	}
	return nil
}

func isInterfaceRecv(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// IsErrorType reports whether t is (or is a named alias of) the builtin
// error interface.
func IsErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func hasCtxParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if IsContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// Package errdrop forbids discarding or silently overwriting error
// results in library packages.
//
// The resilience path turns oracle faults into error values that the
// retry/degrade machinery and the samplers must inspect; an error
// assigned to `_`, a call whose error result is ignored as a bare
// statement, or an err variable overwritten before anything read it
// re-opens exactly the silent-failure hole that layer closed. The check
// is type-driven (any error-typed result counts, from oracle helpers to
// stdlib writers) and uses the flow call graph's signatures to judge
// callees across package boundaries. Deliberate discards carry a
// justification:
//
//	//physdes:errok client disconnected mid-response; nothing to report to
package errdrop

import (
	"go/ast"
	"go/token"
	"go/types"

	"physdes/internal/analysis"
	"physdes/internal/analysis/flow"
)

// Marker is the suppression annotation suffix: //physdes:errok.
const Marker = "errok"

var Analyzer = &analysis.Analyzer{
	Name:      "errdrop",
	Doc:       "forbid discarding or overwriting error results before inspection in library packages",
	AppliesTo: analysis.IsLibraryPackage,
	Run:       run,
}

func run(pass *analysis.Pass) error {
	ix := flow.Of(pass)
	for _, fi := range ix.PassFuncs(pass) {
		if fi.Decl.Body == nil {
			continue
		}
		ann := ix.Annotations(fi.File, Marker)
		check := checker{pass: pass, ann: ann}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				check.stmts(n.List)
			case *ast.CaseClause:
				check.stmts(n.Body)
			case *ast.CommClause:
				check.stmts(n.Body)
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	ann  map[int]string
}

// suppressed consumes an //physdes:errok annotation covering pos,
// reporting an empty justification as its own finding.
func (c *checker) suppressed(pos token.Pos) bool {
	reason, ok := analysis.Annotated(c.ann, c.pass.Fset, pos)
	if !ok {
		return false
	}
	if reason == "" {
		c.pass.Reportf(pos, "//physdes:%s needs a justification explaining why this error is safe to drop", Marker)
	}
	return true
}

// stmts runs all three checks over one statement list.
func (c *checker) stmts(list []ast.Stmt) {
	// pending tracks, per error variable, the position of an assignment
	// whose value has not been read yet.
	pending := map[types.Object]token.Pos{}

	for _, stmt := range list {
		// Check 2: a bare call statement whose results include an error.
		if es, ok := stmt.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok && !excused(c.pass.Info, call) {
				if pos := errResult(c.pass.Info, call); pos >= 0 && !c.suppressed(call.Pos()) {
					c.pass.Reportf(call.Pos(),
						"result %d of %s is an error and is discarded; inspect it (or annotate //physdes:%s <why>)",
						pos, callName(c.pass, call), Marker)
				}
			}
		}

		// Mark error variables read anywhere in this statement except on
		// the left-hand side of its own assignment.
		reads := map[types.Object]bool{}
		var lhsIdents []*ast.Ident
		if as, ok := stmt.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					lhsIdents = append(lhsIdents, id)
				}
			}
		}
		ast.Inspect(stmt, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			for _, lhs := range lhsIdents {
				if lhs == id {
					return true
				}
			}
			if obj := c.pass.Info.Uses[id]; obj != nil {
				reads[obj] = true
			}
			return true
		})
		for obj := range reads {
			delete(pending, obj)
		}

		// Checks 1 and 3 on assignments.
		as, ok := stmt.(*ast.AssignStmt)
		if !ok {
			continue
		}
		for li, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			t := lhsErrType(c.pass.Info, as, li)
			if t == nil {
				continue
			}
			if id.Name == "_" {
				// Check 1: error discarded into the blank identifier.
				rhs := as.Rhs[0]
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[li]
				}
				if excused(c.pass.Info, rhs) {
					continue
				}
				if !c.suppressed(as.Pos()) {
					c.pass.Reportf(id.Pos(),
						"error result assigned to _ before inspection; handle it (or annotate //physdes:%s <why>)", Marker)
				}
				continue
			}
			obj := c.pass.Info.Defs[id]
			if obj == nil {
				obj = c.pass.Info.Uses[id]
			}
			if obj == nil {
				continue
			}
			// Check 3: overwriting a pending error before any read.
			if prev, exists := pending[obj]; exists && !c.suppressed(as.Pos()) {
				c.pass.Reportf(as.Pos(),
					"%s is overwritten before the error assigned at line %d was inspected (or annotate //physdes:%s <why>)",
					id.Name, c.pass.Fset.Position(prev).Line, Marker)
			}
			// A nil-assignment resets rather than drops.
			if len(as.Rhs) == len(as.Lhs) {
				if lit, isIdent := as.Rhs[li].(*ast.Ident); isIdent && lit.Name == "nil" {
					delete(pending, obj)
					continue
				}
			}
			pending[obj] = as.Pos()
		}
	}
}

// excused reports calls whose error result is idiomatic to drop:
//
//   - the fmt printers to stdout (an unwritable stdout is not a
//     resilience concern), and Fprint* to an error-latching writer;
//   - writes to in-memory or error-latching writers (bytes.Buffer and
//     strings.Builder never fail; bufio and tabwriter latch the first
//     error and surface it from Flush, which IS checked);
//   - hash.Hash.Write, documented to never return an error.
//
// Flush itself is never excused — it is exactly the call that surfaces
// a latched error.
func excused(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if fn := flow.StaticCallee(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println":
			return true
		case "Fprint", "Fprintf", "Fprintln":
			if len(call.Args) > 0 {
				if tv, ok := info.Types[call.Args[0]]; ok && latchingWriter(tv.Type) {
					return true
				}
			}
		}
		return false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if latchingWriter(s.Recv()) && sel.Sel.Name != "Flush" {
				return true
			}
			if sel.Sel.Name == "Write" && isHashInterface(s.Recv()) {
				return true
			}
		}
	}
	return false
}

// latchingWriter matches the writer types whose Write-family errors are
// either impossible or retrievable later: in-memory buffers and
// error-latching buffered writers.
func latchingWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	switch n.Obj().Pkg().Path() + "." + n.Obj().Name() {
	case "bytes.Buffer", "strings.Builder", "bufio.Writer", "text/tabwriter.Writer":
		return true
	}
	return false
}

// isHashInterface matches the hash package's Hash interfaces.
func isHashInterface(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Pkg().Path() != "hash" {
		return false
	}
	switch n.Obj().Name() {
	case "Hash", "Hash32", "Hash64":
		return true
	}
	return false
}

// errResult returns the index of the first error-typed result of a
// call used as a bare statement, or -1.
func errResult(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return -1
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if flow.IsErrorType(tuple.At(i).Type()) {
				return i
			}
		}
		return -1
	}
	if flow.IsErrorType(tv.Type) {
		return 0
	}
	return -1
}

// lhsErrType returns the error type being assigned to position li of an
// assignment, or nil when that position does not receive an error.
func lhsErrType(info *types.Info, as *ast.AssignStmt, li int) types.Type {
	if len(as.Rhs) == len(as.Lhs) {
		if tv, ok := info.Types[as.Rhs[li]]; ok && tv.Type != nil && flow.IsErrorType(tv.Type) {
			return tv.Type
		}
		return nil
	}
	// Multi-value: a single call/comma-ok expanding into the LHS.
	if len(as.Rhs) != 1 {
		return nil
	}
	tv, ok := info.Types[as.Rhs[0]]
	if !ok || tv.Type == nil {
		return nil
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok && li < tuple.Len() {
		if flow.IsErrorType(tuple.At(li).Type()) {
			return tuple.At(li).Type()
		}
	}
	return nil
}

// callName renders the called expression for diagnostics.
func callName(pass *analysis.Pass, call *ast.CallExpr) string {
	if fn := flow.StaticCallee(pass.Info, call); fn != nil {
		return fn.Name()
	}
	return analysis.ExprString(pass.Fset, call.Fun)
}

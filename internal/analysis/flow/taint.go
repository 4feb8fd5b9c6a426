package flow

import (
	"go/ast"
	"go/token"
	"go/types"

	"physdes/internal/analysis"
)

// OrderInsensitiveMarker suppresses a map-range source: a map range
// annotated order-insensitive is neither reported nor seeds map-order
// taint.
const OrderInsensitiveMarker = "orderinsensitive"

// Source is the kind of nondeterminism a package-level function brings
// into a program.
type Source int

const (
	NoSource Source = iota
	// WallClock is time.Now, time.Since or time.Until.
	WallClock
	// GlobalRand is a math/rand draw from the shared, racily-advanced
	// global source.
	GlobalRand
	// SeedCtor is a math/rand constructor whose arguments are the seed
	// itself, so a constant or wall-clock argument detaches the result
	// from the injected seed.
	SeedCtor
)

// randCtors are the math/rand functions that take an explicit source or
// seed, mapped to whether their arguments are the seed; every other
// package-level math/rand function draws from the global source.
var randCtors = map[string]bool{
	"New": false, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": false,
}

// SourceOf is the suite's one recognizer of nondeterminism sources: it
// classifies the function an identifier, or the selector of a qualified
// one, refers to. It resolves the name to its *types.Func, so a renamed
// or dot import and a function taken as a value all match, while a
// shadowing local variable or a method (such as Intn on an injected
// *rand.Rand) does not.
func SourceOf(info *types.Info, e ast.Expr) (Source, *types.Func) {
	e = ast.Unparen(e)
	if sel, ok := e.(*ast.SelectorExpr); ok {
		e = sel.Sel
	}
	id, _ := e.(*ast.Ident)
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return NoSource, nil
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
			return WallClock, fn
		}
	case "math/rand", "math/rand/v2":
		seeded, ctor := randCtors[fn.Name()]
		if !ctor {
			return GlobalRand, fn
		}
		if seeded {
			return SeedCtor, fn
		}
	}
	return NoSource, nil
}

// IsMap reports whether e is a map. Ranging over one iterates in an
// order Go randomizes per loop.
func IsMap(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// TaintConfig selects the seed set of a propagation run.
type TaintConfig struct {
	// Nondet seeds every nondeterminism source: uses of wall-clock and
	// global math/rand functions (called or taken as values), the
	// iteration variables of unannotated map ranges, and results of calls
	// to module functions whose TaintedReturn summary is set — the
	// interprocedural edge.
	Nondet bool
	// SeedObjs pre-taints specific objects.
	SeedObjs map[types.Object]string
}

// DetermConfig is the nondeterminism seed set used both by the
// determtaint analyzer and by the TaintedReturn summary fixpoint.
func DetermConfig() TaintConfig {
	return TaintConfig{Nondet: true}
}

// Taint is the result of one forward propagation over a function body:
// the set of tainted objects plus an expression-level predicate.
type Taint struct {
	ix   *Index
	fi   *FuncInfo
	cfg  TaintConfig
	objs map[types.Object]string
}

// Propagate runs forward dataflow over fi's body to fixpoint: an object
// becomes tainted when it is assigned an expression containing a seed
// or another tainted object.
func (ix *Index) Propagate(fi *FuncInfo, cfg TaintConfig) *Taint {
	tt := &Taint{ix: ix, fi: fi, cfg: cfg, objs: map[types.Object]string{}}
	for obj, reason := range cfg.SeedObjs {
		tt.objs[obj] = reason
	}
	if fi.Decl.Body == nil {
		return tt
	}
	// Monotone: each pass can only add objects, so the loop terminates.
	for tt.pass() {
	}
	return tt
}

// TaintedObj reports whether the object is tainted.
func (tt *Taint) TaintedObj(obj types.Object) (string, bool) {
	r, ok := tt.objs[obj]
	return r, ok
}

// pass runs one propagation sweep; it reports whether anything changed.
func (tt *Taint) pass() bool {
	changed := false
	mark := func(id *ast.Ident, reason string) {
		if id == nil || id.Name == "_" {
			return
		}
		obj := tt.objOf(id)
		if obj == nil {
			return
		}
		if _, ok := tt.objs[obj]; !ok {
			tt.objs[obj] = reason
			changed = true
		}
	}
	ast.Inspect(tt.fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					if reason, ok := tt.Tainted(rhs); ok {
						if id, ok := n.Lhs[i].(*ast.Ident); ok {
							mark(id, reason)
						}
					}
				}
				return true
			}
			// Tuple assignment: one tainted source taints every target.
			for _, rhs := range n.Rhs {
				if reason, ok := tt.Tainted(rhs); ok {
					for _, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							mark(id, reason)
						}
					}
					break
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					if reason, ok := tt.Tainted(v); ok {
						for _, id := range vs.Names {
							mark(id, reason)
						}
						break
					}
				}
			}
		case *ast.RangeStmt:
			keyID, _ := n.Key.(*ast.Ident)
			valID, _ := n.Value.(*ast.Ident)
			if tt.cfg.Nondet && tt.isUnannotatedMapRange(n) {
				mark(keyID, "map iteration order")
				mark(valID, "map iteration order")
			}
			if reason, ok := tt.Tainted(n.X); ok {
				mark(keyID, reason)
				mark(valID, reason)
			}
		}
		return true
	})
	return changed
}

// isUnannotatedMapRange reports a range over a map value without an
// //physdes:orderinsensitive suppression.
func (tt *Taint) isUnannotatedMapRange(rs *ast.RangeStmt) bool {
	if !IsMap(tt.fi.Pkg.Info, rs.X) {
		return false
	}
	_, annotated := analysis.Annotated(tt.ix.Annotations(tt.fi.File, OrderInsensitiveMarker), tt.ix.Fset, rs.Pos())
	return !annotated
}

// Tainted reports whether the expression's value derives from a seed,
// and names the source: e contains a source, a call of a tainted callee
// or a use of a tainted object. Function literals are separate frames
// and are not descended into.
func (tt *Taint) Tainted(e ast.Expr) (string, bool) {
	var reason string
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, lit := n.(*ast.FuncLit); found || lit {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if reason, found = tt.objs[tt.objOf(id)]; found {
				return false
			}
		}
		reason, found = tt.seed(n)
		return !found
	})
	return reason, found
}

// seed reports whether n is a seed under the run's config: a source
// function, or a call of a module function whose TaintedReturn summary
// is set.
func (tt *Taint) seed(n ast.Node) (string, bool) {
	if !tt.cfg.Nondet {
		return "", false
	}
	switch n := n.(type) {
	case *ast.Ident:
		switch src, fn := SourceOf(tt.fi.Pkg.Info, n); src {
		case WallClock:
			return "wall clock (time." + fn.Name() + ")", true
		case GlobalRand:
			return "global RNG (" + fn.Pkg().Path() + "." + fn.Name() + ")", true
		}
	case *ast.CallExpr:
		if fi := tt.ix.Lookup(StaticCallee(tt.fi.Pkg.Info, n)); fi != nil && fi.TaintedReturn {
			return fi.Obj.Name() + " (returns " + fi.TaintReason + ")", true
		}
	}
	return "", false
}

// objOf resolves an identifier to its object (use or def).
func (tt *Taint) objOf(id *ast.Ident) types.Object {
	info := tt.fi.Pkg.Info
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// NondetOKMarker suppresses a determtaint finding with justification.
const NondetOKMarker = "nondetok"

// computeTaintSummaries runs the TaintedReturn fixpoint over the whole
// module: a function's returns are tainted when a return expression is
// tainted under DetermConfig (which itself consults callee summaries,
// so taint flows up call chains until nothing changes). Returns covered
// by a //physdes:nondetok suppression do not poison the summary — the
// justification is trusted to hold for callers too.
func (ix *Index) computeTaintSummaries() {
	for {
		changed := false
		for _, fi := range ix.all {
			if fi.TaintedReturn || fi.Decl.Body == nil {
				continue
			}
			tt := ix.Propagate(fi, DetermConfig())
			reason, pos, found := tt.taintedReturn()
			if !found {
				continue
			}
			if _, suppressed := ix.SiteAnnotation(fi, NondetOKMarker, pos); suppressed {
				continue
			}
			fi.TaintedReturn = true
			fi.TaintReason = reason
			changed = true
		}
		if !changed {
			return
		}
	}
}

// taintedReturn finds the first tainted return expression.
func (tt *Taint) taintedReturn() (reason string, pos token.Pos, found bool) {
	ast.Inspect(tt.fi.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if r, ok := tt.Tainted(res); ok {
					reason, pos, found = r, n.Pos(), true
					return false
				}
			}
		}
		return true
	})
	return reason, pos, found
}

// Package determtaint is the suite's determinism analyzer. The paper's
// Pr(CS) ≥ α guarantee is a statement about a seeded sampling process,
// and the batch layer promises bit-identical serial and parallel runs,
// so every visible output must be a pure function of (inputs, seed).
// flow.SourceOf decides what counts as a nondeterminism source; the
// analyzer reports two kinds of finding.
//
// Sources, each in its own package scope:
//   - a range over a map in the result-affecting packages: Go randomizes
//     map order per loop, so a map range feeding an accumulator (float
//     addition is not associative) or picking "the first" of anything
//     differs run to run. A genuinely order-insensitive loop is
//     annotated //physdes:orderinsensitive <why>;
//   - a global math/rand draw, or a constant or wall-clock RNG seed, in
//     library packages: seeds flow in through Options. Binaries (cmd/,
//     examples/) may seed from flags;
//   - a time.Now, time.Since or time.Until in library packages other
//     than internal/obs. Libraries time operations with obs.Stopwatch.
//
// Tainted values: in the result-affecting packages, a value derived from
// map order, a wall clock or the global RNG — possibly produced by a
// helper in a package no source rule covers, through any number of
// calls — must not reach a return, a trace event or a cache key. The
// flow layer's TaintedReturn summaries carry taint across functions;
// the forward engine tracks it through local assignments. Justified
// nondeterminism is suppressed at the sink:
//
//	//physdes:nondetok sorted before comparison; order cannot affect the result
package determtaint

import (
	"go/ast"
	"go/token"
	"go/types"

	"physdes/internal/analysis"
	"physdes/internal/analysis/flow"
)

// The suppression annotation suffixes: //physdes:nondetok at a sink,
// //physdes:orderinsensitive on a map range.
const (
	Marker      = flow.NondetOKMarker
	RangeMarker = flow.OrderInsensitiveMarker
)

// Analyzer applies to every library package, the widest scope of its
// rules; run narrows each rule to its own scope.
var Analyzer = &analysis.Analyzer{
	Name:      "determtaint",
	Doc:       "flag nondeterminism sources (map ranges, global or fixed-seed math/rand, wall-clock reads) and values they taint reaching result-affecting returns, trace events or cache keys",
	AppliesTo: analysis.IsLibraryPackage,
	Run:       run,
}

func run(pass *analysis.Pass) error {
	ix := flow.Of(pass)
	resultAffecting := analysis.IsResultAffecting(pass.Pkg.Path())
	checkSources(pass, ix, resultAffecting, analysis.IsLibraryOutsideObs(pass.Pkg.Path()))
	if resultAffecting {
		checkSinks(pass, ix)
	}
	return nil
}

// checkSources reports every source in scope: map ranges only in
// result-affecting packages, clock reads only outside internal/obs.
func checkSources(pass *analysis.Pass, ix *flow.Index, maps, clock bool) {
	// report flags e if it names a source in scope, and reports whether
	// it names a source at all.
	report := func(e ast.Expr) bool {
		src, fn := flow.SourceOf(pass.Info, e)
		switch {
		case src == flow.WallClock && clock:
			pass.Reportf(e.Pos(),
				"wall clock read time.%s in a library package: wall-clock must never influence estimates; time operations with obs.Stopwatch and keep clock reads in internal/obs or cmd binaries", fn.Name())
		case src == flow.GlobalRand:
			pass.Reportf(e.Pos(),
				"call to global %s.%s: the shared source is not seed-reproducible; inject a *rand.Rand (or stats.RNG) through Options", fn.Pkg().Path(), fn.Name())
		}
		return src != flow.NoSource
	}
	for _, file := range pass.Files {
		ann := ix.Annotations(file, RangeMarker)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if maps && flow.IsMap(pass.Info, n.X) {
					checkMapRange(pass, ann, n)
				}
			case *ast.CallExpr:
				checkSeed(pass, n)
			case *ast.SelectorExpr:
				// Report a qualified source at its qualifier, where the
				// call starts, and do not visit its Sel again.
				return !report(n)
			case *ast.Ident:
				report(n)
			}
			return true
		})
	}
}

func checkMapRange(pass *analysis.Pass, ann map[int]string, rs *ast.RangeStmt) {
	if reason, ok := analysis.Annotated(ann, pass.Fset, rs.Pos()); ok {
		if reason == "" {
			pass.Reportf(rs.Pos(),
				"//physdes:%s needs a justification explaining why this loop body is order-insensitive", RangeMarker)
		}
		return
	}
	pass.Reportf(rs.Pos(),
		"range over map %s: iteration order is nondeterministic and this package is result-affecting; iterate sorted keys, or annotate the loop //physdes:%s <why>",
		types.ExprString(rs.X), RangeMarker)
}

// checkSeed reports a seeding constructor whose seed is a constant or
// derives from the wall clock.
func checkSeed(pass *analysis.Pass, call *ast.CallExpr) {
	src, fn := flow.SourceOf(pass.Info, call.Fun)
	if src != flow.SeedCtor {
		return
	}
	path, name := fn.Pkg().Path(), fn.Name()
	for _, arg := range call.Args {
		if tv := pass.Info.Types[arg]; tv.Value != nil {
			pass.Reportf(call.Pos(),
				"%s.%s with constant seed %s: seeds must be injected via Options, not hard-coded in a library", path, name, tv.Value)
		} else if readsClock(pass.Info, arg) {
			pass.Reportf(call.Pos(),
				"%s.%s seeded from the wall clock: results would differ run to run; inject the seed via Options", path, name)
		}
	}
}

// readsClock reports whether e refers to a wall-clock function.
func readsClock(info *types.Info, e ast.Expr) (found bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !found {
			src, _ := flow.SourceOf(info, id)
			found = src == flow.WallClock
		}
		return !found
	})
	return found
}

// checkSinks reports tainted values reaching a return, a trace event
// payload or a map key.
func checkSinks(pass *analysis.Pass, ix *flow.Index) {
	for _, fi := range ix.PassFuncs(pass) {
		if fi.Decl.Body == nil {
			continue
		}
		tt := ix.Propagate(fi, flow.DetermConfig())
		ann := ix.Annotations(fi.File, Marker)
		report := func(pos token.Pos, sinkPos token.Pos, format string, args ...any) {
			if reason, ok := analysis.Annotated(ann, pass.Fset, sinkPos); ok {
				if reason == "" {
					pass.Reportf(sinkPos,
						"//physdes:%s needs a justification explaining why this nondeterminism cannot affect the result", Marker)
				}
				return
			}
			pass.Reportf(pos, format, args...)
		}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if reason, tainted := tt.Tainted(res); tainted {
						report(res.Pos(), n.Pos(),
							"return value of %s is tainted by %s in a result-affecting package; derive it deterministically (or annotate //physdes:%s <why>)",
							fi.Obj.Name(), reason, Marker)
						break
					}
				}
			case *ast.CallExpr:
				checkTraceSink(pass, tt, report, n)
			case *ast.IndexExpr:
				// A tainted cache key makes hit patterns — and therefore
				// call budgets and degradation decisions — run-dependent.
				if !flow.IsMap(pass.Info, n.X) {
					break
				}
				if reason, tainted := tt.Tainted(n.Index); tainted {
					report(n.Index.Pos(), n.Pos(),
						"map/cache key is tainted by %s; keys must be deterministic (or annotate //physdes:%s <why>)",
						reason, Marker)
				}
			}
			return true
		})
	}
}

// checkTraceSink flags tainted values flowing into Tracer.Emit/Begin
// event payloads: traces are replayed byte-for-byte by the recorder and
// compared across runs, so a tainted field breaks trace bit-identity.
func checkTraceSink(pass *analysis.Pass, tt *flow.Taint, report func(pos, sinkPos token.Pos, format string, args ...any), call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Emit" && sel.Sel.Name != "Begin") {
		return
	}
	recv := analysis.NamedReceiver(pass.Info, sel)
	if recv == nil || recv.Obj().Name() != "Tracer" {
		return
	}
	for _, arg := range call.Args {
		if reason, tainted := tt.Tainted(arg); tainted {
			report(arg.Pos(), call.Pos(),
				"trace event payload is tainted by %s; traces must be bit-identical across runs of one seed (or annotate //physdes:%s <why>)",
				reason, Marker)
			return
		}
	}
}

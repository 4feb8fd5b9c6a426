package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// The package scopes of the suite's rules, by import path. Every
// analyzer and every rule inside one reads its scope from here.

// IsLibraryPackage reports whether pkgPath is a library package — i.e.
// not a main binary under cmd/ or examples/. Binaries may read wall
// clocks and seed RNGs from flags; libraries must not.
func IsLibraryPackage(pkgPath string) bool {
	for _, seg := range strings.Split(pkgPath, "/") {
		if seg == "cmd" || seg == "examples" {
			return false
		}
	}
	return true
}

// IsLibraryOutsideObs reports whether pkgPath is a library package other
// than internal/obs. The observability layer owns the wall clock (it
// exists to timestamp and time things) and handles caller-provided
// trace and metric names generically.
func IsLibraryOutsideObs(pkgPath string) bool {
	return IsLibraryPackage(pkgPath) && !hasPathSuffix(pkgPath, "internal/obs")
}

// resultAffecting lists the package-path suffixes whose outputs are part
// of the determinism contract.
var resultAffecting = []string{
	"internal/sampling",
	"internal/core",
	"internal/bounds",
	"internal/tuner",
	"internal/optimizer",
}

// IsResultAffecting reports whether pkgPath is one of the packages whose
// outputs are part of the determinism contract. Other packages may range
// maps freely (obs snapshots sort before writing), and helpers elsewhere
// may produce nondeterministic values: those only matter once they flow
// into one of these packages' results.
func IsResultAffecting(pkgPath string) bool {
	for _, s := range resultAffecting {
		if hasPathSuffix(pkgPath, s) {
			return true
		}
	}
	return false
}

// hasPathSuffix reports whether pkgPath ends with the given slash-
// separated suffix on a segment boundary, so "internal/core" matches
// "physdes/internal/core" but not "physdes/internal/score".
func hasPathSuffix(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// ExprString renders an expression as source text, for diagnostics and
// for matching a Lock receiver against its Unlock.
func ExprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "<expr>"
	}
	return buf.String()
}

// NamedReceiver resolves the named type of a method call's receiver
// expression, unwrapping one level of pointer and any alias.
func NamedReceiver(info *types.Info, sel *ast.SelectorExpr) *types.Named {
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n
	}
	return nil
}

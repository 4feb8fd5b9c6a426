// Command physdeslint is the repository's determinism & concurrency lint
// suite: a multichecker over the custom analyzers in internal/analysis.
// It loads and type-checks every package of the enclosing module using
// only the standard library, runs each analyzer where it applies, and
// exits non-zero if any invariant is violated. `make check` gates on it.
//
// Usage:
//
//	physdeslint [-list] [-self] [patterns...]
//
// With no patterns (or "./...") every module package is checked;
// otherwise packages whose import path contains any pattern as a
// substring are checked. -self adds the pattern internal/analysis, so
// the suite checks its own implementation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"physdes/internal/analysis"
	"physdes/internal/analysis/ctxflow"
	"physdes/internal/analysis/determtaint"
	"physdes/internal/analysis/errdrop"
	"physdes/internal/analysis/lockcheck"
	"physdes/internal/analysis/tracenames"
	"physdes/internal/analysis/zeroalloc"
)

// Suite is every analyzer the gate runs, in diagnostic-prefix order:
// lockcheck and tracenames look at one function at a time; ctxflow,
// determtaint, errdrop and zeroalloc read the flow call graph.
var Suite = []*analysis.Analyzer{
	ctxflow.Analyzer,
	determtaint.Analyzer,
	errdrop.Analyzer,
	lockcheck.Analyzer,
	tracenames.Analyzer,
	zeroalloc.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	self := flag.Bool("self", false, "lint the lint suite itself (restrict to internal/analysis/...)")
	flag.Parse()
	if *list {
		for _, a := range Suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "physdeslint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if *self {
		patterns = append(patterns[:len(patterns):len(patterns)], "internal/analysis")
	}
	n, err := Run(os.Stdout, cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "physdeslint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "physdeslint: %d violation(s)\n", n)
		os.Exit(1)
	}
}

// Run executes the suite over the module enclosing dir, printing
// diagnostics to w, and returns how many were found. Patterns filter
// packages by import-path substring; empty or "./..." means all.
func Run(w io.Writer, dir string, patterns []string) (int, error) {
	root, err := analysis.FindModuleRoot(dir)
	if err != nil {
		return 0, err
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return 0, err
	}
	// The invariants hold for test code too: a benchmark helper that
	// allocates inside a zeroalloc chain, or a test dropping an oracle
	// error, undermines the gate it supports.
	loader.IncludeTests = true
	pkgs, err := loader.LoadAll()
	if err != nil {
		return 0, err
	}
	var keep []string
	for _, p := range patterns {
		if p != "./..." && p != "all" {
			keep = append(keep, strings.TrimPrefix(p, "./"))
		}
	}
	// The filter narrows which packages are *reported on*; the full load
	// still backs the shared interprocedural state so callees outside the
	// selection resolve (a zeroalloc chain crossing into another package
	// must not look like a call out of the module).
	selected := pkgs
	if len(keep) > 0 {
		selected = nil
		for _, pkg := range pkgs {
			for _, p := range keep {
				if strings.Contains(pkg.Path, p) {
					selected = append(selected, pkg)
					break
				}
			}
		}
	}
	diags, err := analysis.RunAnalyzersOn(pkgs, selected, Suite, loader.Fset, root)
	if err != nil {
		return 0, err
	}
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
	return len(diags), nil
}

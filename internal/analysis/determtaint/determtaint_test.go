package determtaint_test

import (
	"testing"

	"physdes/internal/analysis"
	"physdes/internal/analysis/analysistest"
	"physdes/internal/analysis/determtaint"
)

// Each fixture's import path is its directory below testdata/src, so it
// runs under the real scope of that package.

// TestDetermTaint: tainted values reaching sinks in a result-affecting
// package, where every source rule applies too.
func TestDetermTaint(t *testing.T) {
	analysistest.Run(t, determtaint.Analyzer, "testdata/src/internal/sampling")
}

// TestNoMapRange: map-range sources in a result-affecting package.
func TestNoMapRange(t *testing.T) {
	analysistest.Run(t, determtaint.Analyzer, "testdata/src/internal/core")
}

// TestNoRandGlobal: global and fixed-seed math/rand in internal/obs,
// which is exempt from the clock rule only.
func TestNoRandGlobal(t *testing.T) {
	analysistest.Run(t, determtaint.Analyzer, "testdata/src/internal/obs")
}

// TestNoWallClock: clock reads in a library package outside obs that
// is not result-affecting.
func TestNoWallClock(t *testing.T) {
	analysistest.Run(t, determtaint.Analyzer, "testdata/src/internal/workload")
}

// scopes pins the scope of each determtaint rule by import path: map
// ranges and taint sinks in the result-affecting packages, math/rand in
// every library package, clock reads in every library package but
// internal/obs.
var scopes = []struct {
	path                     string
	mapsAndTaint, rng, clock bool
}{
	{"physdes/internal/sampling", true, true, true},
	{"physdes/internal/core", true, true, true},
	{"physdes/internal/bounds", true, true, true},
	{"physdes/internal/tuner", true, true, true},
	{"physdes/internal/optimizer", true, true, true},
	{"physdes/internal/workload", false, true, true}, // helpers here taint callers, not themselves
	{"physdes/internal/score", false, true, true},    // suffix must respect segment boundaries
	{"physdes/internal/obs", false, true, false},     // the clock belongs here; snapshots sort before writing
	{"physdes", false, true, true},
	{"physdes/cmd/physdes", false, false, false}, // binaries read clocks and seed from flags
	{"physdes/cmd/benchrunner", false, false, false},
	{"physdes/examples/quickstart", false, false, false},
}

// TestMapRangeScope: map ranges and taint sinks are checked only in the
// result-affecting packages.
func TestMapRangeScope(t *testing.T) {
	for _, tc := range scopes {
		if got := analysis.IsResultAffecting(tc.path); got != tc.mapsAndTaint {
			t.Errorf("map-range scope of %s = %v, want %v", tc.path, got, tc.mapsAndTaint)
		}
	}
}

// TestRandScope: the math/rand rule is not narrowed, so its scope is
// the analyzer's own.
func TestRandScope(t *testing.T) {
	for _, tc := range scopes {
		if got := determtaint.Analyzer.AppliesTo(tc.path); got != tc.rng {
			t.Errorf("math/rand scope of %s = %v, want %v", tc.path, got, tc.rng)
		}
	}
}

// TestClockScope: clock reads are checked in library packages other
// than internal/obs.
func TestClockScope(t *testing.T) {
	for _, tc := range scopes {
		if got := analysis.IsLibraryOutsideObs(tc.path); got != tc.clock {
			t.Errorf("clock scope of %s = %v, want %v", tc.path, got, tc.clock)
		}
	}
}

// TestAppliesTo: the analyzer runs exactly where at least one of its
// rules applies, so no rule is cut short and no package is loaded for
// nothing.
func TestAppliesTo(t *testing.T) {
	for _, tc := range scopes {
		want := tc.mapsAndTaint || tc.rng || tc.clock
		if got := determtaint.Analyzer.AppliesTo(tc.path); got != want {
			t.Errorf("AppliesTo(%q) = %v, want %v (the union of its rule scopes)", tc.path, got, want)
		}
	}
}

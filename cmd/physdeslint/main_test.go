package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module on disk.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestSeededViolationFailsGate is the acceptance fixture for the build
// gate: a module seeded with one violation of each determtaint source
// rule, lockcheck and tracenames must make the suite exit non-zero
// (Run > 0 violations ⇒ main exits 1).
func TestSeededViolationFailsGate(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module seedtest\n\ngo 1.22\n",
		"DESIGN.md": "| Kind | Name |\n|---|---|\n| event | `round` |\n" +
			"| metric | `optimizer_calls_total` |\n",
		// Wall-clock source: clock read in a library package.
		"internal/core/clock.go": `package core

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
		// Map-range source: unannotated map range in a
		// result-affecting package.
		"internal/sampling/maps.go": `package sampling

func Sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}
`,
		// Global-RNG source: global generator in a library.
		"internal/tuner/rng.go": `package tuner

import "math/rand"

func Pick(n int) int { return rand.Intn(n) }
`,
		// lockcheck violation: lock held across an early return.
		"internal/bounds/lock.go": `package bounds

import "sync"

type Guarded struct {
	mu sync.Mutex
	n  int
}

func (g *Guarded) Bad() int {
	g.mu.Lock()
	if g.n > 0 {
		return g.n
	}
	g.mu.Unlock()
	return 0
}
`,
		// tracenames violation: event absent from the schema table.
		"internal/optimizer/trace.go": `package optimizer

type Tracer struct{}

func (t *Tracer) Emit(ev string, kvs ...any) {}

func Note(t *Tracer) { t.Emit("unregistered.event") }
`,
	})
	var out strings.Builder
	n, err := Run(&out, root, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n < 5 {
		t.Fatalf("want at least one violation per planted rule (≥5), got %d:\n%s", n, out.String())
	}
	// The three sources share the determtaint prefix, so each is found
	// by its message.
	for _, want := range []string{"wall clock read", "range over map", "global math/rand", "lockcheck", "tracenames"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("no %s diagnostic in output:\n%s", want, out.String())
		}
	}
}

// TestSeededInterproceduralViolationsFailGate mirrors
// TestSeededViolationFailsGate for the four flow-graph analyzers: one
// planted violation of each invariant must surface under its analyzer's
// name.
func TestSeededInterproceduralViolationsFailGate(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module seedflow\n\ngo 1.22\n",
		// ctxflow violation: a library function detaches its call tree
		// with context.Background instead of accepting a context.
		"internal/core/fire.go": `package core

import "context"

func Fire() { work(context.Background()) }

func work(ctx context.Context) { <-ctx.Done() }
`,
		// errdrop violation: an error result discarded into the blank
		// identifier before inspection.
		"internal/cost/drop.go": `package cost

import "errors"

func mayFail() error { return errors.New("boom") }

func Drop() { _ = mayFail() }
`,
		// determtaint violation: a map-iteration-order value flows
		// through a local into a result-affecting return.
		"internal/sampling/first.go": `package sampling

func First(m map[string]int) string {
	var first string
	for k := range m {
		first = k
	}
	return first
}
`,
		// zeroalloc violation: an annotated hot-path function allocates.
		"internal/stats/fill.go": `package stats

//physdes:zeroalloc
func Fill(n int) []int { return make([]int, n) }
`,
	})
	var out strings.Builder
	n, err := Run(&out, root, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n < 4 {
		t.Fatalf("want at least one violation per analyzer (≥4), got %d:\n%s", n, out.String())
	}
	for _, want := range []string{"ctxflow", "errdrop", "determtaint", "zeroalloc"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("no %s diagnostic in output:\n%s", want, out.String())
		}
	}
}

// TestFilteredRunSharesWholeModuleSummaries pins the driver contract that
// pattern filtering narrows reporting, not the call graph: a zeroalloc
// chain crossing into an unselected package must still resolve the
// callee's summary instead of flagging it as an unknown external call.
func TestFilteredRunSharesWholeModuleSummaries(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module seedshared\n\ngo 1.22\n",
		"internal/sampling/hot.go": `package sampling

import "seedshared/internal/stats"

//physdes:zeroalloc
func Hot(a, b float64) float64 { return stats.AddProduct(a, b) }
`,
		"internal/stats/math.go": `package stats

//physdes:zeroalloc
func AddProduct(a, b float64) float64 { return a * b }
`,
	})
	var out strings.Builder
	n, err := Run(&out, root, []string{"internal/sampling"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 0 {
		t.Fatalf("filtered run must resolve cross-package callees, got %d:\n%s", n, out.String())
	}
}

// TestCleanModulePasses is the inverse fixture: the gate must stay quiet
// on a module that honors every invariant.
func TestCleanModulePasses(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module cleantest\n\ngo 1.22\n",
		"internal/sampling/sum.go": `package sampling

import "sort"

func Sum(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	//physdes:orderinsensitive key collection only; sorted before use
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var s float64
	for _, k := range keys {
		s += m[k]
	}
	return s
}
`,
	})
	var out strings.Builder
	n, err := Run(&out, root, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 0 {
		t.Fatalf("want clean module to pass, got %d violations:\n%s", n, out.String())
	}
}

// TestPatternFilter restricts the run to matching packages.
func TestPatternFilter(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module filtertest\n\ngo 1.22\n",
		"internal/core/clock.go": `package core

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
		"internal/workload/ok.go": `package workload

func OK() int { return 1 }
`,
	})
	var out strings.Builder
	n, err := Run(&out, root, []string{"internal/workload"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 0 {
		t.Fatalf("filtered run should skip internal/core, got %d:\n%s", n, out.String())
	}
	n, err = Run(&out, root, []string{"internal/core"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n == 0 {
		t.Fatalf("filtered run should catch internal/core violation")
	}
}

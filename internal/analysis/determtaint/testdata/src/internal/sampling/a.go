// Package a sits at internal/sampling, a result-affecting package, so
// every source rule applies here as well as the taint sinks.
package a

import (
	"math/rand"
	"sort"
	"time"
)

// Tracer mimics the obs tracer: Emit payloads must be bit-identical
// across runs of one seed.
type Tracer struct{}

func (t *Tracer) Emit(name string, args ...any) {}

// mapOrderSum returns a float accumulated in map iteration order.
func mapOrderSum(m map[string]float64) float64 {
	var s float64
	for _, v := range m { // want "range over map m"
		s += v
	}
	return s // want "tainted by map iteration order"
}

// helper produces a wall-clock value in a package the source rules
// might not cover; its TaintedReturn summary carries the taint up.
func helper() int64 {
	t := time.Now()     // want "wall clock read time.Now"
	return t.UnixNano() // want "tainted by wall clock"
}

// viaCallee is the interprocedural case: the taint arrives through the
// call graph, not through any source visible in this body.
func viaCallee() int64 {
	v := helper() / 2
	return v // want "tainted by helper"
}

// rng returns a draw from the globally shared source.
func rng() int {
	n := rand.Int() // want "global math/rand.Int"
	return n        // want "tainted by global RNG"
}

// seededDraw uses an injected source: deterministic, no finding.
func seededDraw(r *rand.Rand) int {
	n := r.Int()
	return n
}

// cacheKey indexes a cache with a tainted key: hit patterns become
// run-dependent.
func cacheKey(cache map[int64]float64) float64 {
	k := helper()
	return cache[k] // want "cache key is tainted" "tainted by helper"
}

// traceSink emits a tainted payload field.
func traceSink(tr *Tracer, m map[string]int) {
	n := 0
	for _, v := range m { // want "range over map m"
		n += v
	}
	tr.Emit("round", n) // want "trace event payload is tainted"
}

// sortedKeys is the sanctioned rewrite: the annotated collection loop
// does not seed taint, and the sorted slice is deterministic.
func sortedKeys(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	//physdes:orderinsensitive key collection; sorted before any use
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

// annotatedNondet carries a justification at the sink.
func annotatedNondet(m map[string]int) string {
	first := ""
	for k := range m { // want "range over map m"
		if first == "" || k < first {
			first = k
		}
	}
	//physdes:nondetok first converges to the minimum key; order only changes the path there
	return first
}

// missingReason: a suppression without a justification is a finding.
func missingReason(m map[string]int) string {
	last := ""
	for k := range m { // want "range over map m"
		last = k
	}
	//physdes:nondetok
	return last // want "needs a justification"
}

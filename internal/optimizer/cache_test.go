package optimizer

import (
	"sync"
	"testing"

	"physdes/internal/obs"
	"physdes/internal/physical"
)

func TestCachedOptimizer(t *testing.T) {
	inner := New(testCat)
	c := NewCached(inner)
	a := analyze(t, "SELECT l_quantity FROM lineitem WHERE l_orderkey = 5")
	cfg := physical.NewConfiguration("ix", physical.NewIndex("lineitem", []string{"l_orderkey"}))

	v1 := c.Cost(a, cfg)
	v2 := c.Cost(a, cfg)
	if v1 != v2 {
		t.Fatal("cache returned different values")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d", c.Hits(), c.Misses())
	}
	// Only the miss reached the optimizer, once per atom: the empty
	// (heap-scan) atom and the l_orderkey singleton.
	if inner.Calls() != 2 || c.Entries() != 2 {
		t.Errorf("inner calls = %d, entries = %d, want 2/2", inner.Calls(), c.Entries())
	}
	// A configuration whose only atom is stored: hit.
	c.Cost(a, physical.NewConfiguration("empty"))
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", c.Hits(), c.Misses())
	}
	// A configuration with a new readable index: miss, one new atom.
	c.Cost(a, physical.NewConfiguration("ix2", physical.NewIndex("lineitem", []string{"l_orderkey", "l_quantity"})))
	if c.Misses() != 2 || c.Entries() != 3 {
		t.Errorf("misses=%d entries=%d, want 2/3", c.Misses(), c.Entries())
	}
	// Same statement text but a different Analysis value: statement keys
	// are pointer identities, so this is a (sound, conservative) miss.
	a2 := analyze(t, "SELECT l_quantity FROM lineitem WHERE l_orderkey = 5")
	c.Cost(a2, cfg)
	if c.Misses() != 3 {
		t.Errorf("misses = %d, want 3", c.Misses())
	}
	if c.Inner() != inner {
		t.Error("Inner accessor broken")
	}
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 || c.Entries() != 0 {
		t.Error("Reset incomplete")
	}
}

// TestCachedOptimizerMetrics checks the registry export: hit/miss
// counters and the entries gauge track the memo's own accounting, and
// the wrapped optimizer's call counter only moves on misses.
func TestCachedOptimizerMetrics(t *testing.T) {
	inner := New(testCat)
	reg := obs.NewRegistry()
	inner.SetMetrics(reg)
	c := NewCached(inner)
	c.SetMetrics(reg)
	a := analyze(t, "SELECT l_quantity FROM lineitem WHERE l_orderkey = 7")
	cfg := physical.NewConfiguration("ix", physical.NewIndex("lineitem", []string{"l_orderkey"}))

	c.Cost(a, cfg) // miss
	c.Cost(a, cfg) // hit
	c.Cost(a, cfg) // hit

	snap := reg.Snapshot()
	if snap.Counters["optimizer_cache_hits_total"] != 2 {
		t.Errorf("hits counter = %d, want 2", snap.Counters["optimizer_cache_hits_total"])
	}
	if snap.Counters["optimizer_cache_misses_total"] != 1 {
		t.Errorf("misses counter = %d, want 1", snap.Counters["optimizer_cache_misses_total"])
	}
	if snap.Gauges["optimizer_cache_entries"] != 2 {
		t.Errorf("entries gauge = %v, want 2 atoms", snap.Gauges["optimizer_cache_entries"])
	}
	// Hits never reach the wrapped optimizer: one call per atom of the miss.
	if snap.Counters["optimizer_calls_total"] != 2 {
		t.Errorf("optimizer_calls_total = %d, want 2", snap.Counters["optimizer_calls_total"])
	}
	hits, misses, entries := c.Stats()
	if hits != 2 || misses != 1 || entries != 2 {
		t.Errorf("Stats() = %d/%d/%d, want 2/1/2", hits, misses, entries)
	}
	c.Reset()
	if reg.Snapshot().Gauges["optimizer_cache_entries"] != 0 {
		t.Error("Reset must zero the entries gauge")
	}
}

func TestCachedOptimizerConcurrent(t *testing.T) {
	c := NewCached(New(testCat))
	a := analyze(t, "SELECT l_quantity FROM lineitem WHERE l_shipdate < 100")
	cfg := physical.NewConfiguration("empty")
	want := c.Cost(a, cfg)
	var wg sync.WaitGroup
	errs := make(chan float64, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v := c.Cost(a, cfg); v != want {
				errs <- v
			}
		}()
	}
	wg.Wait()
	close(errs)
	for v := range errs {
		t.Errorf("concurrent read returned %v, want %v", v, want)
	}
}

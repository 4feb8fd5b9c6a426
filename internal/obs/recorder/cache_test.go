package recorder

import (
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/obs"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
)

// TestCacheStatsFromMemo drives the what-if memo with a registry attached
// and checks that the report's cache section is the memo's request
// accounting: a configuration that only adds a structure the statement
// cannot read, and a repeat, are both answered from stored atoms.
func TestCacheStatsFromMemo(t *testing.T) {
	cat := catalog.TPCD(0.01)
	st, err := sqlparse.Parse("SELECT l_quantity FROM lineitem WHERE l_partkey = 37")
	if err != nil {
		t.Fatal(err)
	}
	a, err := sqlparse.Analyze(st, cat.Resolve)
	if err != nil {
		t.Fatal(err)
	}
	ix := physical.NewIndex("lineitem", []string{"l_partkey"})
	base := physical.NewConfiguration("base", ix)
	wider := physical.NewConfiguration("wider", ix, physical.NewIndex("orders", []string{"o_custkey"}))

	reg := obs.NewRegistry()
	memo := optimizer.NewCached(optimizer.New(cat))
	memo.SetMetrics(reg)
	memo.Cost(a, base)  // miss: the empty and the l_partkey atoms are costed
	memo.Cost(a, wider) // hit: same atoms
	memo.Cost(a, base)  // hit
	rep := New("select").WithMetrics(reg).Report()
	hits, misses, _ := memo.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("memo Stats hits/misses = %d/%d, want 2/1", hits, misses)
	}
	if rep.Cache == nil || rep.Cache.Hits != hits || rep.Cache.Misses != misses {
		t.Fatalf("report cache = %+v, want the memo's %d hits / %d misses", rep.Cache, hits, misses)
	}
	if want := 2.0 / 3; rep.Cache.HitRate != want {
		t.Errorf("hit rate = %v, want %v", rep.Cache.HitRate, want)
	}
}

package optimizer_test

import (
	"fmt"
	"testing"

	"physdes/internal/obs"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
)

// TestCachedAtomStatsAndMetrics pins the memo's per-atom accounting on
// the serial path: AtomStats and the registry counters must agree call for
// call, Reset must zero the store, and detaching the registry must stop
// the export without touching costing.
func TestCachedAtomStatsAndMetrics(t *testing.T) {
	c := optimizer.NewCached(optimizer.New(atomsCat))
	r := obs.NewRegistry()
	c.SetMetrics(r)

	a := analyze(t, "SELECT l_quantity FROM lineitem WHERE l_partkey = 37")
	cfg := physical.NewConfiguration("c",
		physical.NewIndex("lineitem", []string{"l_partkey"}),
		physical.NewIndex("lineitem", []string{"l_shipdate"}, "l_quantity", "l_partkey"),
	)
	first := c.Cost(a, cfg)  // empty atom + 2 singletons: 3 atoms costed
	second := c.Cost(a, cfg) // same plan again: 3 atom hits
	if first != second {
		t.Fatalf("repeated Cost diverged: %v vs %v", first, second)
	}
	if want := optimizer.New(atomsCat).Cost(a, cfg); first != want {
		t.Fatalf("atom-reassembled cost %v != direct cost %v", first, want)
	}

	hits, atoms, fallbacks := c.AtomStats()
	if hits != 3 || atoms != 3 || fallbacks != 0 || c.Entries() != 3 {
		t.Fatalf("AtomStats() = (%d, %d, %d), entries %d, want (3, 3, 0), 3", hits, atoms, fallbacks, c.Entries())
	}
	snap := r.Snapshot()
	if got := snap.Counters["optimizer_atom_hits_total"]; got != hits {
		t.Errorf("optimizer_atom_hits_total = %d, want %d", got, hits)
	}
	if got := snap.Counters["optimizer_atoms_total"]; got != atoms {
		t.Errorf("optimizer_atoms_total = %d, want %d", got, atoms)
	}
	if got := snap.Histograms["optimizer_atom_cost_seconds"].Count; got != atoms {
		t.Errorf("optimizer_atom_cost_seconds count = %d, want one observation per atom costing (%d)", got, atoms)
	}

	// Reset clears the store and its counters; the registry keeps its
	// monotonic totals.
	c.Reset()
	if hits, atoms, fallbacks = c.AtomStats(); hits != 0 || atoms != 0 || fallbacks != 0 || c.Entries() != 0 {
		t.Fatalf("AtomStats() after Reset = (%d, %d, %d), entries %d, want zeros", hits, atoms, fallbacks, c.Entries())
	}
	if got := c.Cost(a, cfg); got != first {
		t.Fatalf("cost after Reset diverged: %v vs %v", got, first)
	}

	// Detaching stops the export: further costings move AtomStats but not
	// the registry.
	c.SetMetrics(nil)
	before := r.Snapshot().Counters["optimizer_atoms_total"]
	c.Reset()
	c.Cost(a, cfg)
	if after := r.Snapshot().Counters["optimizer_atoms_total"]; after != before {
		t.Errorf("detached registry moved: optimizer_atoms_total %d -> %d", before, after)
	}
}

// TestCachedWidthFallbackSerial pins the serial fallback path: a
// statement whose projection exceeds the width bound is costed on its full
// configuration as the one atom, returns the direct cost exactly, is
// stored, and is counted as a fallback.
func TestCachedWidthFallbackSerial(t *testing.T) {
	c := optimizer.NewCached(optimizer.New(atomsCat))
	c.SetMetrics(obs.NewRegistry())
	a := analyze(t, "SELECT o_orderdate, l_extendedprice FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND o_orderdate < 200")
	cfg := wideOrdersConfig()
	got := c.Cost(a, cfg)
	if want := optimizer.New(atomsCat).Cost(a, cfg); got != want {
		t.Fatalf("fallback cost %v != direct cost %v", got, want)
	}
	hits, atoms, fallbacks := c.AtomStats()
	if fallbacks != 1 || atoms != 1 || hits != 0 || c.Entries() != 1 {
		t.Errorf("AtomStats() = (%d, %d, %d), entries %d, want (0, 1, 1), 1: the full configuration stored as one atom",
			hits, atoms, fallbacks, c.Entries())
	}
	if calls := c.Inner().Calls(); calls != 1 {
		t.Errorf("inner calls = %d, want 1", calls)
	}
}

// TestCachedRepeatedFallbackChargedOnce costs a statement over the width
// bound through Cost and then twice more inside one pooled batch: the
// inner optimizer is charged for it exactly once, every request counts as
// a fallback, and no key is computed twice.
func TestCachedRepeatedFallbackChargedOnce(t *testing.T) {
	wide := analyze(t, "SELECT o_orderdate, l_extendedprice FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND o_orderdate < 200")
	wideCfg := wideOrdersConfig()
	want := optimizer.New(atomsCat).Cost(wide, wideCfg)

	// Pad the batch past the pool threshold with single-table statements;
	// a separate memo prices the padding alone.
	reqs := []optimizer.Request{{Analysis: wide, Config: wideCfg}}
	for i := 0; i < 14; i++ {
		a := analyze(t, fmt.Sprintf("SELECT l_quantity FROM lineitem WHERE l_partkey = %d", i))
		reqs = append(reqs, optimizer.Request{Analysis: a, Config: physical.NewConfiguration("pad")})
	}
	reqs = append(reqs, optimizer.Request{Analysis: wide, Config: wideCfg})
	pad := optimizer.NewCached(optimizer.New(atomsCat))
	pad.Batch(reqs[1:len(reqs)-1], 1)

	r := obs.NewRegistry()
	c := optimizer.NewCached(optimizer.New(atomsCat))
	c.SetMetrics(r)
	if got := c.Cost(wide, wideCfg); got != want {
		t.Fatalf("Cost = %v, want direct %v", got, want)
	}
	out := c.Batch(reqs, 4)
	if out[0] != want || out[len(out)-1] != want {
		t.Fatalf("batch fallback costs %v, %v, want direct %v", out[0], out[len(out)-1], want)
	}
	if calls, padCalls := c.Inner().Calls(), pad.Inner().Calls(); calls != 1+padCalls {
		t.Errorf("inner calls = %d, want 1 for the fallback + %d for the padding", calls, padCalls)
	}
	if _, _, fallbacks := c.AtomStats(); fallbacks != 3 {
		t.Errorf("fallbacks = %d, want 3", fallbacks)
	}
	if dups := r.Snapshot().Counters["optimizer_duplicate_computations_total"]; dups != 0 {
		t.Errorf("optimizer_duplicate_computations_total = %d, want 0", dups)
	}
}

// wideOrdersConfig builds a configuration whose projection on the
// orders⋈lineitem join exceeds DefaultMaxAtomWidth (9 lead-o_orderdate
// variants + 9 lead-o_orderkey variants = 18 relevant indexes), forcing
// the width-bound fallback inside a batch.
func wideOrdersConfig() *physical.Configuration {
	seconds := []string{
		"o_custkey", "o_orderstatus", "o_totalprice", "o_orderpriority",
		"o_clerk", "o_shippriority", "o_comment",
	}
	ixs := []physical.Structure{
		physical.NewIndex("orders", []string{"o_orderdate"}),
		physical.NewIndex("orders", []string{"o_orderkey"}),
		physical.NewIndex("orders", []string{"o_orderdate", "o_orderkey"}),
		physical.NewIndex("orders", []string{"o_orderkey", "o_orderdate"}),
	}
	for _, s := range seconds {
		ixs = append(ixs,
			physical.NewIndex("orders", []string{"o_orderdate", s}),
			physical.NewIndex("orders", []string{"o_orderkey", s}),
		)
	}
	return physical.NewConfiguration("wide", ixs...)
}

// TestCachedAtomicBatchMetrics drives the memoized batch path with a
// registry attached and a width-bound fallback in the mix: every value
// must match direct costing, the fallback must be billed as one atom, and
// the registry counters must equal the memo's accounting — which must in
// turn equal a fresh memo evaluating the same requests serially.
func TestCachedAtomicBatchMetrics(t *testing.T) {
	analyses := []*sqlparse.Analysis{
		analyze(t, "SELECT l_quantity FROM lineitem WHERE l_partkey = 37"),
		analyze(t, "SELECT o_totalprice FROM orders WHERE o_orderdate < 180"),
		analyze(t, "SELECT l_extendedprice FROM lineitem WHERE l_shipdate < 90"),
		analyze(t, "SELECT o_clerk FROM orders WHERE o_custkey = 12"),
	}
	wide := analyze(t, "SELECT o_orderdate, l_extendedprice FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND o_orderdate < 200")

	shared1 := physical.NewIndex("lineitem", []string{"l_partkey"})
	shared2 := physical.NewIndex("orders", []string{"o_orderdate"})
	shared3 := physical.NewIndex("lineitem", []string{"l_shipdate"})
	configs := []*physical.Configuration{
		physical.NewConfiguration("c1", shared1, shared2),
		physical.NewConfiguration("c2", shared1, shared2, physical.NewIndex("orders", []string{"o_custkey"})),
		physical.NewConfiguration("c3", shared2, shared3),
		physical.NewConfiguration("c4", shared1, shared3),
	}
	wideCfg := wideOrdersConfig()

	// 4×4 overlapping cross product + the wide fallback + a memo alias:
	// large enough (>= 16) to reach the pooled batch path.
	var reqs []optimizer.Request
	for _, a := range analyses {
		for _, cfg := range configs {
			reqs = append(reqs, optimizer.Request{Analysis: a, Config: cfg})
		}
	}
	reqs = append(reqs,
		optimizer.Request{Analysis: wide, Config: wideCfg},
		optimizer.Request{Analysis: analyses[0], Config: configs[0]}, // memo alias
	)

	r := obs.NewRegistry()
	c := optimizer.NewCached(optimizer.New(atomsCat))
	c.SetMetrics(r)
	got := c.Batch(reqs, 4)

	direct := optimizer.New(atomsCat)
	for i, req := range reqs {
		if want := direct.Cost(req.Analysis, req.Config); got[i] != want {
			t.Fatalf("req %d: batch cost %v != direct %v", i, got[i], want)
		}
	}

	hits, misses, fallbacks := c.AtomStats()
	entries := c.Entries()
	if fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1 (the width-%d projection)", fallbacks, wideCfg.NumStructures())
	}
	if misses <= 0 || hits <= 0 || entries != int(misses) {
		t.Errorf("AtomStats() = (%d, %d, %d), entries %d: want positive hits/misses and entries == misses",
			hits, misses, fallbacks, entries)
	}
	reqHits, reqMisses, _ := c.Stats()
	if got := r.Snapshot().Counters["optimizer_cache_hits_total"]; got != reqHits {
		t.Errorf("optimizer_cache_hits_total = %d, want %d", got, reqHits)
	}
	if got := r.Snapshot().Counters["optimizer_cache_misses_total"]; got != reqMisses {
		t.Errorf("optimizer_cache_misses_total = %d, want %d", got, reqMisses)
	}
	snap := r.Snapshot()
	if got := snap.Counters["optimizer_atom_hits_total"]; got != hits {
		t.Errorf("optimizer_atom_hits_total = %d, want %d", got, hits)
	}
	if got := snap.Counters["optimizer_atoms_total"]; got != misses {
		t.Errorf("optimizer_atoms_total = %d, want %d", got, misses)
	}
	if got := snap.Histograms["optimizer_atom_cost_seconds"].Count; got != 1 {
		t.Errorf("optimizer_atom_cost_seconds count = %d, want 1 per dispatched batch", got)
	}

	// Accounting parity with the serial path: a fresh memo fed the same
	// requests one by one must land on identical counters.
	s := optimizer.NewCached(optimizer.New(atomsCat))
	for _, req := range reqs {
		s.Cost(req.Analysis, req.Config)
	}
	sh, sm, sf := s.AtomStats()
	srh, srm, se := s.Stats()
	if sh != hits || sm != misses || sf != fallbacks || se != entries || srh != reqHits || srm != reqMisses {
		t.Errorf("batch accounting (%d, %d, %d, %d, %d/%d) != serial accounting (%d, %d, %d, %d, %d/%d)",
			hits, misses, fallbacks, entries, reqHits, reqMisses, sh, sm, sf, se, srh, srm)
	}
	if bi, si := c.Inner().Calls(), s.Inner().Calls(); bi != si {
		t.Errorf("batch charged %d inner calls, serial charged %d; must match", bi, si)
	}

}

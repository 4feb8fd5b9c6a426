package optimizer

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"

	"physdes/internal/obs"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
)

// Cached memoizes what-if calls with atomic-configuration sharing: each
// (statement, configuration) request is decomposed into atoms (atoms.go),
// each (statement, atom) pair is costed once and stored, and the request's
// cost is reassembled as the minimum over its atoms' stored costs. Only
// never-seen atoms reach the inner optimizer, so across overlapping
// configurations the what-if bill shrinks while the costs stay
// bit-identical to direct costing. A width-bound fallback is a one-atom
// plan whose atom is the full configuration, so a repeated fallback is
// charged once too. Stored costs are NOT charged to the inner optimizer's
// call counter, so the savings are visible in the same accounting the
// paper uses.
//
// Keys combine the statement's pointer identity with the atom's
// fingerprint: analyses are immutable once built by the workload package,
// so pointer identity is a sound statement key within one process. The
// invariant cuts both ways — two *distinct* parses of the same SQL text
// are distinct keys and intentionally do not share entries (see
// TestCacheKeyPointerIdentity).
//
// The table is sharded so batch-pool workers hammering the memo
// concurrently contend on per-shard locks instead of one global RWMutex.
// Two racing misses on the same key would both consult the inner optimizer
// (each charged as a call), making call totals depend on scheduling. The
// deduplicating batch path never races with itself, so such a duplicate
// computation means some caller bypassed it; the store counts each one on
// optimizer_duplicate_computations_total, an invariant that must stay 0.
type Cached struct {
	inner *Optimizer

	shards  [cacheShards]cacheShard
	entries atomic.Int64

	// hits and misses count requests: a hit paid no inner call, a miss
	// paid at least one. atomHits and atoms count the atoms those requests
	// found stored and the atoms they costed.
	hits, misses, atomHits, atoms, fallbacks atomic.Int64

	// singletons interns the one-index atoms (keyed by index pointer —
	// candidate structures are shared across configurations), so the hot
	// decompose path does not rebuild them per request.
	singletons sync.Map

	metrics atomic.Pointer[memoMetrics]
}

// cacheShards is the shard count: far above any realistic worker count so
// shard collisions under a saturated pool stay rare. Must be a power of
// two (the shard index is a hash mask).
const cacheShards = 64

type cacheShard struct {
	mu    sync.RWMutex
	table map[cacheKey]float64
}

// memoMetrics holds the registry handles resolved by SetMetrics.
type memoMetrics struct {
	hits, misses, atomHits, atoms, dups *obs.Counter
	entries                             *obs.Gauge
	latency                             *obs.Histogram
}

// cacheKey is comparable: two keys are equal iff they hold the same
// *sqlparse.Analysis pointer AND the same configuration fingerprint.
type cacheKey struct {
	a   *sqlparse.Analysis
	cfg string
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// shardIndex hashes a key to its shard: FNV-1a over the configuration
// fingerprint, mixed with the analysis pointer (shifted past alignment
// zeros). Both components matter — a Delta row keeps the statement fixed
// across k configurations while a greedy tuner probe keeps the
// configuration fixed across N statements; either alone would serialize
// one of those access patterns onto a single shard.
func shardIndex(key cacheKey) int {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key.cfg); i++ {
		h ^= uint64(key.cfg[i])
		h *= fnvPrime64
	}
	h ^= uint64(reflect.ValueOf(key.a).Pointer()) >> 3
	h *= fnvPrime64
	return int(h & (cacheShards - 1))
}

// NewCached wraps an optimizer with the atom memo.
func NewCached(inner *Optimizer) *Cached {
	c := &Cached{inner: inner}
	for i := range c.shards {
		c.shards[i].table = make(map[cacheKey]float64)
	}
	return c
}

// SetMetrics exports the memo's accounting on the registry:
// optimizer_cache_hits_total and optimizer_cache_misses_total (requests
// answered without and with an inner what-if call), the
// optimizer_cache_entries gauge (stored atoms),
// optimizer_atom_hits_total (atoms found stored), optimizer_atoms_total
// (atoms costed), the optimizer_atom_cost_seconds histogram (time spent
// costing atoms — per atom on the serial path, per dispatched batch on the
// batch path) and the optimizer_duplicate_computations_total invariant.
// Passing nil detaches.
func (c *Cached) SetMetrics(r *obs.Registry) {
	if r == nil {
		c.metrics.Store(nil)
		return
	}
	c.metrics.Store(&memoMetrics{
		hits:     r.Counter("optimizer_cache_hits_total"),
		misses:   r.Counter("optimizer_cache_misses_total"),
		atomHits: r.Counter("optimizer_atom_hits_total"),
		atoms:    r.Counter("optimizer_atoms_total"),
		dups:     r.Counter("optimizer_duplicate_computations_total"),
		entries:  r.Gauge("optimizer_cache_entries"),
		latency:  r.Histogram("optimizer_atom_cost_seconds"),
	})
}

// decompose is Decompose with singleton-atom interning; it counts
// width-bound fallbacks.
func (c *Cached) decompose(a *sqlparse.Analysis, cfg *physical.Configuration) AtomPlan {
	plan := decomposePlan(a, cfg, DefaultMaxAtomWidth, c.singleton)
	if plan.Fallback {
		c.fallbacks.Add(1)
	}
	return plan
}

func (c *Cached) singleton(ix *physical.Index) *physical.Configuration {
	if v, ok := c.singletons.Load(ix); ok {
		return v.(*physical.Configuration)
	}
	v, _ := c.singletons.LoadOrStore(ix, physical.NewConfiguration("atom", ix))
	return v.(*physical.Configuration)
}

// Cost evaluates the statement under cfg as the minimum over its atoms'
// memoized costs, consulting the inner optimizer for atoms not yet stored.
func (c *Cached) Cost(a *sqlparse.Analysis, cfg *physical.Configuration) float64 {
	m := c.metrics.Load()
	best, paid := math.Inf(1), false
	for _, atom := range c.decompose(a, cfg).Atoms {
		key := cacheKey{a: a, cfg: atom.Fingerprint()}
		v, ok := c.lookup(key)
		if ok {
			c.countAtom(true, m)
		} else {
			paid = true
			c.countAtom(false, m)
			if m != nil {
				sw := obs.NewStopwatch()
				v = c.inner.Cost(a, atom)
				m.latency.Observe(sw.Elapsed().Seconds())
			} else {
				v = c.inner.Cost(a, atom)
			}
			c.store(key, v, m)
		}
		if v < best {
			best = v
		}
	}
	c.countRequest(paid, m)
	return best
}

func (c *Cached) lookup(key cacheKey) (float64, bool) {
	sh := &c.shards[shardIndex(key)]
	sh.mu.RLock()
	v, ok := sh.table[key]
	sh.mu.RUnlock()
	return v, ok
}

// store memoizes a computed atom; finding the key already present means it
// was computed twice (see optimizer_duplicate_computations_total).
func (c *Cached) store(key cacheKey, v float64, m *memoMetrics) {
	sh := &c.shards[shardIndex(key)]
	sh.mu.Lock()
	_, dup := sh.table[key]
	if !dup {
		sh.table[key] = v
		c.entries.Add(1)
	}
	sh.mu.Unlock()
	if m != nil {
		if dup {
			m.dups.Inc()
		}
		m.entries.Set(float64(c.entries.Load()))
	}
}

// countAtom accounts one atom of a request: stored (hit) or costed.
func (c *Cached) countAtom(hit bool, m *memoMetrics) {
	if hit {
		c.atomHits.Add(1)
		if m != nil {
			m.atomHits.Inc()
		}
		return
	}
	c.atoms.Add(1)
	if m != nil {
		m.atoms.Inc()
	}
}

// countRequest accounts one request: a miss when it paid an inner call.
func (c *Cached) countRequest(paid bool, m *memoMetrics) {
	if paid {
		c.misses.Add(1)
		if m != nil {
			m.misses.Inc()
		}
		return
	}
	c.hits.Add(1)
	if m != nil {
		m.hits.Inc()
	}
}

// Stats reports the memo's request accounting in one call: hits (requests
// that paid no inner call), misses (requests that paid at least one) and
// the number of stored atoms.
func (c *Cached) Stats() (hits, misses int64, entries int) {
	return c.hits.Load(), c.misses.Load(), c.Entries()
}

// AtomStats reports the per-atom accounting: atoms found stored, atoms
// costed, and requests that fell back to their full configuration as the
// one atom.
func (c *Cached) AtomStats() (hits, atoms, fallbacks int64) {
	return c.atomHits.Load(), c.atoms.Load(), c.fallbacks.Load()
}

// Hits returns the number of requests that paid no inner call.
func (c *Cached) Hits() int64 { return c.hits.Load() }

// Misses returns the number of requests that paid at least one inner call.
func (c *Cached) Misses() int64 { return c.misses.Load() }

// Entries returns the number of stored atoms (summed across shards).
func (c *Cached) Entries() int { return int(c.entries.Load()) }

// Inner returns the wrapped optimizer (for call accounting).
func (c *Cached) Inner() *Optimizer { return c.inner }

// Reset clears the memo table and counters. Registry counters are
// monotonic and keep their totals; the entries gauge drops to zero.
func (c *Cached) Reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.table = make(map[cacheKey]float64)
		sh.mu.Unlock()
	}
	c.entries.Store(0)
	for _, n := range []*atomic.Int64{&c.hits, &c.misses, &c.atomHits, &c.atoms, &c.fallbacks} {
		n.Store(0)
	}
	if m := c.metrics.Load(); m != nil {
		m.entries.Set(0)
	}
}

package optimizer

import (
	"math"
	"sync/atomic"

	"physdes/internal/obs"
	"physdes/internal/par"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
)

// Request is one (statement, configuration) item of a batched what-if
// evaluation.
type Request struct {
	Analysis *sqlparse.Analysis
	Config   *physical.Configuration
}

// minParallelBatch is the batch size below which dispatching to the worker
// pool costs more than the microsecond-scale what-if calls it would
// overlap; smaller batches evaluate inline on the calling goroutine.
const minParallelBatch = 16

// Batch evaluates every request over a bounded worker pool and returns the
// costs in request order. See BatchInto for the semantics.
func (o *Optimizer) Batch(reqs []Request, parallelism int) []float64 {
	out := make([]float64, len(reqs))
	o.BatchInto(reqs, out, parallelism)
	return out
}

// BatchInto evaluates reqs[i] into out[i] using up to `parallelism`
// workers (<= 1, or a batch below the inline threshold, evaluates
// serially). Each request charges exactly one optimizer call, so the call
// accounting is identical to len(reqs) serial Cost invocations; the costs
// themselves are pure functions of (statement, configuration), so out is
// bit-identical at every parallelism level. Workers only write into their
// positional slot — order-sensitive reductions belong to the caller.
func (o *Optimizer) BatchInto(reqs []Request, out []float64, parallelism int) {
	n := len(reqs)
	if n == 0 {
		return
	}
	if len(out) < n {
		panic("optimizer: BatchInto output slice shorter than request slice")
	}
	m := o.metrics.Load()
	if m != nil {
		m.batches.Inc()
		m.batchReqs.Add(int64(n))
		m.batchSize.Observe(float64(n))
	}
	if parallelism <= 1 || n < minParallelBatch {
		for i, r := range reqs {
			out[i] = o.Cost(r.Analysis, r.Config)
		}
		return
	}
	// claimed tracks pool saturation: batch_inflight is the number of busy
	// workers at any instant, batch_queue_depth the requests not yet
	// claimed from the current batch.
	var claimed atomic.Int64
	par.For(n, parallelism, func(i int) {
		if m != nil {
			m.batchInflight.Add(1)
			m.batchQueue.Set(float64(n) - float64(claimed.Add(1)))
		}
		out[i] = o.Cost(reqs[i].Analysis, reqs[i].Config)
		if m != nil {
			m.batchInflight.Add(-1)
		}
	})
	if m != nil {
		m.batchQueue.Set(0)
	}
}

// Batch evaluates every request through the memo over a bounded worker
// pool, returning costs in request order. See BatchInto for the semantics.
func (c *Cached) Batch(reqs []Request, parallelism int) []float64 {
	out := make([]float64, len(reqs))
	c.BatchInto(reqs, out, parallelism)
	return out
}

// BatchInto evaluates reqs[i] into out[i] with atom sharing: decompose
// every request serially in order, dedupe the batch's unseen atoms in
// first-occurrence order, cost them through the inner batch pool, then
// reassemble each request's cost as the minimum over its atoms. A request
// whose atoms an earlier request of the batch costs counts as a hit, as it
// would in a serial loop. Hit/miss accounting and inner-call counts are
// therefore identical to evaluating the requests serially through Cost, at
// every parallelism level — the cost values themselves are pure, so the
// result is bit-identical too.
func (c *Cached) BatchInto(reqs []Request, out []float64, parallelism int) {
	n := len(reqs)
	if len(out) < n {
		panic("optimizer: BatchInto output slice shorter than request slice")
	}
	if parallelism <= 1 || n < minParallelBatch {
		for i, r := range reqs {
			out[i] = c.Cost(r.Analysis, r.Config)
		}
		return
	}
	m := c.metrics.Load()
	plans := make([]AtomPlan, n)
	// have holds every atom cost the batch reads; the atoms in missing
	// hold a placeholder until the inner batch returns.
	have := make(map[cacheKey]float64, n)
	var missing []Request
	var missingKeys []cacheKey
	for i, r := range reqs {
		plans[i] = c.decompose(r.Analysis, r.Config)
		paid := false
		for _, atom := range plans[i].Atoms {
			key := cacheKey{a: r.Analysis, cfg: atom.Fingerprint()}
			if _, ok := have[key]; ok {
				c.countAtom(true, m)
				continue
			}
			if v, ok := c.lookup(key); ok {
				c.countAtom(true, m)
				have[key] = v
				continue
			}
			paid = true
			c.countAtom(false, m)
			have[key] = 0
			missing = append(missing, Request{Analysis: r.Analysis, Config: atom})
			missingKeys = append(missingKeys, key)
		}
		c.countRequest(paid, m)
	}
	if len(missing) > 0 {
		vals := make([]float64, len(missing))
		var sw obs.Stopwatch
		if m != nil {
			sw = obs.NewStopwatch()
		}
		c.inner.BatchInto(missing, vals, parallelism)
		if m != nil {
			m.latency.Observe(sw.Elapsed().Seconds())
		}
		for i, key := range missingKeys {
			have[key] = vals[i]
			c.store(key, vals[i], m)
		}
	}
	for i, r := range reqs {
		best := math.Inf(1)
		for _, atom := range plans[i].Atoms {
			if v := have[cacheKey{a: r.Analysis, cfg: atom.Fingerprint()}]; v < best {
				best = v
			}
		}
		out[i] = best
	}
}

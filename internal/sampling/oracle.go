// Package sampling implements the paper's estimation machinery: Independent
// Sampling (Section 4.1), Delta Sampling (Section 4.2), the probability of
// correct selection Pr(CS) with the Bonferroni multi-way bound (Equation 3),
// workload stratification with the progressive splitting search of
// Algorithm 2 (Section 5.1), and the next-sample allocation heuristics of
// Section 5.2.
//
// The samplers consume costs through an Oracle so that the same code runs
// against a live what-if optimizer and against a precomputed cost matrix
// (the Monte-Carlo harness). Every cost retrieval is accounted as one
// optimizer call — the resource the paper minimizes.
package sampling

import (
	"errors"
	"sync/atomic"

	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/workload"
)

// Oracle supplies optimizer-estimated costs of (query, configuration)
// pairs and tracks how many were requested.
type Oracle interface {
	// Cost returns the cost of query i under configuration j, charging one
	// optimizer call.
	Cost(i, j int) float64
	// N returns the workload size.
	N() int
	// K returns the number of configurations.
	K() int
	// Calls returns the number of optimizer calls charged so far.
	Calls() int64
}

// Pair identifies one (query, configuration) request of a batched cost
// evaluation: query index Q under configuration index J.
type Pair struct {
	Q, J int
}

// ErrOracle is an Oracle whose cost probes can fail — the contract for
// remote or flaky what-if services and for the decorators that model or
// harden them (fault injection, retries, degradation policies). Its only
// fallible path is a batch: the samplers hand every row and pilot batch
// to BatchCostErr, so a decorator sees whole batches and can keep them
// whole on the way down to the memoized oracle's deduplicating batch.
type ErrOracle interface {
	Oracle
	// BatchCostErr evaluates pairs[i] into out[i] and writes its error
	// (nil on success) to errs[i], for every slot, using up to
	// parallelism workers. Slots, values and errors must be identical at
	// every parallelism level. Implementations decide what a failed probe
	// charges against Calls(); the built-in decorators charge every
	// attempt, matching a real what-if service that burns optimizer time
	// before failing.
	BatchCostErr(pairs []Pair, out []float64, errs []error, parallelism int)
}

// ErrSkipQuery is the sentinel a fallible oracle (typically the resilience
// wrapper in skip-and-reweight mode) returns — wrapped — to ask the
// sampler to degrade gracefully: drop the query from its stratum and
// renormalize the stratum weight, instead of failing the run. Any other
// probe error aborts the selection.
var ErrSkipQuery = errors.New("sampling: skip query and reweight stratum")

// Eval evaluates every pair through o's widest path: BatchCostErr for an
// ErrOracle, BatchCost for a BatchOracle, otherwise a Cost loop in pair
// order. It always evaluates the whole batch, so the call accounting is
// the same at every parallelism level even when probes fail. errs must be
// at least as long as pairs; the infallible paths clear it.
func Eval(o Oracle, pairs []Pair, out []float64, errs []error, parallelism int) {
	switch b := o.(type) {
	case ErrOracle:
		b.BatchCostErr(pairs, out, errs, parallelism)
		return
	case BatchOracle:
		b.BatchCost(pairs, out, parallelism)
	default:
		for i, p := range pairs {
			out[i] = o.Cost(p.Q, p.J)
		}
	}
	clear(errs[:len(pairs)])
}

// rowErr resolves the errors of one evaluated row or sample: a hard error
// wins over any skip request, and a skip request (ErrSkipQuery) is
// returned when nothing worse happened.
func rowErr(errs []error) error {
	var skip error
	for _, e := range errs {
		switch {
		case e == nil:
		case errors.Is(e, ErrSkipQuery):
			if skip == nil {
				skip = e
			}
		default:
			return e
		}
	}
	return skip
}

// BatchOracle is an Oracle that can evaluate many pairs at once, fanning
// the work over a bounded pool. Implementations must charge exactly one
// optimizer call per pair (identical accounting to len(pairs) Cost calls)
// and must produce values identical to serial Cost at every parallelism
// level — the samplers rely on this for their determinism contract.
type BatchOracle interface {
	Oracle
	// BatchCost evaluates pairs[i] into out[i] using up to parallelism
	// workers. len(out) must be >= len(pairs).
	BatchCost(pairs []Pair, out []float64, parallelism int)
}

// MatrixOracle replays a precomputed cost matrix, charging synthetic calls.
type MatrixOracle struct {
	M     *workload.CostMatrix
	calls atomic.Int64
}

// NewMatrixOracle wraps a cost matrix.
func NewMatrixOracle(m *workload.CostMatrix) *MatrixOracle {
	return &MatrixOracle{M: m}
}

// Cost implements Oracle.
func (o *MatrixOracle) Cost(i, j int) float64 {
	o.calls.Add(1)
	return o.M.Costs[i][j]
}

// N implements Oracle.
func (o *MatrixOracle) N() int { return o.M.N() }

// K implements Oracle.
func (o *MatrixOracle) K() int { return o.M.K() }

// Calls implements Oracle.
func (o *MatrixOracle) Calls() int64 { return o.calls.Load() }

// BatchCost implements BatchOracle. Matrix lookups are far cheaper than
// pool dispatch, so the batch is served inline; the synthetic call charge
// still matches one call per pair.
func (o *MatrixOracle) BatchCost(pairs []Pair, out []float64, parallelism int) {
	for i, p := range pairs {
		out[i] = o.M.Costs[p.Q][p.J]
	}
	o.calls.Add(int64(len(pairs)))
}

// ResetCalls zeroes the counter.
func (o *MatrixOracle) ResetCalls() { o.calls.Store(0) }

// SharedOracle is the live what-if oracle: it evaluates costs on demand
// through a memoized optimizer with atomic-configuration sharing
// (optimizer.NewCached). Each request is decomposed into the atomic
// sub-configurations the plan can read, only never-seen (query, atom)
// pairs reach the what-if optimizer, and the values are bit-identical to
// calling the optimizer directly. Calls() reports the inner optimizer's
// counter, so the sharing shows up directly in the paper's accounting:
// repeated probes of overlapping configurations charge far fewer calls
// than N*K.
type SharedOracle struct {
	C        *optimizer.Cached
	Workload *workload.Workload
	Configs  []*physical.Configuration
}

// NewSharedOracle builds a shared oracle over an atom memo.
func NewSharedOracle(c *optimizer.Cached, w *workload.Workload, configs []*physical.Configuration) *SharedOracle {
	return &SharedOracle{C: c, Workload: w, Configs: configs}
}

// Cost implements Oracle.
func (o *SharedOracle) Cost(i, j int) float64 {
	return o.C.Cost(o.Workload.Queries[i].Analysis, o.Configs[j])
}

// N implements Oracle.
func (o *SharedOracle) N() int { return o.Workload.Size() }

// K implements Oracle.
func (o *SharedOracle) K() int { return len(o.Configs) }

// Calls implements Oracle. Only atoms missing from the memo reach the
// inner optimizer, so this counter is what the sharing saves.
func (o *SharedOracle) Calls() int64 { return o.C.Inner().Calls() }

// BatchCost implements BatchOracle through the memo's deduplicating batch
// path; values and accounting match serial Cost at every parallelism.
// A serial batch is that same Cost loop, run without building requests.
func (o *SharedOracle) BatchCost(pairs []Pair, out []float64, parallelism int) {
	if parallelism <= 1 {
		for i, p := range pairs {
			out[i] = o.Cost(p.Q, p.J)
		}
		return
	}
	reqs := make([]optimizer.Request, len(pairs))
	for i, p := range pairs {
		reqs[i] = optimizer.Request{Analysis: o.Workload.Queries[p.Q].Analysis, Config: o.Configs[p.J]}
	}
	o.C.BatchInto(reqs, out, parallelism)
}

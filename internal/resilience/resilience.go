// Package resilience hardens a fallible what-if oracle (sampling.ErrOracle)
// against transient faults: bounded retries with deterministic seeded
// backoff jitter, a per-oracle error budget, and two degradation policies
// for probes that stay broken after retries —
//
//   - Skip (skip-and-reweight): the probe reports sampling.ErrSkipQuery and
//     the sampler drops the query from its stratum, renormalizing the
//     stratum weight. The stratified estimator stays unbiased for the
//     surviving sub-population because queries fail independently of their
//     (never observed) costs: conditioning on the failure set, the
//     remaining draws are still a uniform sample of the reweighted stratum.
//   - Conservative: the probe is answered with a caller-supplied fallback
//     bound — core.Select wires the Section 6 upper cost interval endpoint
//     C_hi(i,j), so the substituted value can only inflate the apparent
//     cost of the affected configuration and Pr(CS) remains a valid lower
//     bound (the same argument as Section 6.2's σ²_max substitution).
//
// The wrapper maps batch to batch: it evaluates the whole batch once
// through its inner oracle, retries only the failed slots as sub-batches
// in slot order, then degrades what is left in slot order. Backoff jitter
// derives from a seeded hash of (query, configuration, attempt) — never
// from wall-clock time — so every decision, the call accounting and the
// probe on which the error budget runs out are identical at every
// parallelism level.
package resilience

import (
	"errors"
	"fmt"
	"sync/atomic"

	"physdes/internal/obs"
	"physdes/internal/sampling"
)

// Policy selects what happens to a probe whose retries are exhausted.
type Policy int

// Degradation policies.
const (
	// Fail propagates the probe error, aborting the selection run.
	Fail Policy = iota
	// Skip degrades by returning sampling.ErrSkipQuery: the sampler drops
	// the query and reweights its stratum (skip-and-reweight).
	Skip
	// Conservative degrades by substituting Options.Fallback(i, j) — a
	// conservative cost bound — for the unavailable probe.
	Conservative
)

func (p Policy) String() string {
	switch p {
	case Fail:
		return "fail"
	case Skip:
		return "skip"
	case Conservative:
		return "conservative"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ErrBudgetExhausted wraps the probe error once the oracle's degradation
// budget (Options.ErrorBudget) is spent: further failures abort the run
// instead of degrading silently.
var ErrBudgetExhausted = errors.New("resilience: oracle error budget exhausted")

// permanentError marks an error as not worth retrying.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent marks err as non-retryable: the wrapper skips straight to its
// degradation policy instead of burning retry attempts. A nil err returns
// nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked with
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Options configures the resilience wrapper.
type Options struct {
	// MaxRetries is the number of re-attempts after a failed probe
	// (0 = no retries; a probe is tried 1+MaxRetries times at most).
	MaxRetries int
	// BackoffBaseMS and BackoffMaxMS shape the virtual exponential backoff
	// schedule: attempt a waits min(Base·2^(a−1), Max) scaled by a seeded
	// jitter factor in [0.5, 1). Defaults 1ms / 1000ms.
	BackoffBaseMS float64
	BackoffMaxMS  float64
	// Seed drives the backoff jitter hash. Runs with equal seeds replay
	// identical schedules.
	Seed uint64
	// Policy selects the degradation mode once retries are exhausted
	// (default Fail).
	Policy Policy
	// ErrorBudget bounds the number of degraded probes per oracle; once
	// exceeded, further failures return ErrBudgetExhausted. <= 0 means
	// unlimited.
	ErrorBudget int
	// Fallback supplies the conservative substitute cost for policy
	// Conservative; required in that mode.
	Fallback func(i, j int) float64
	// Sleep, when non-nil, is invoked with each backoff delay in virtual
	// milliseconds. The nil default records the delay without sleeping —
	// retries against an in-process oracle are instantaneous and
	// deterministic.
	Sleep func(ms float64)
	// Metrics, when non-nil, registers oracle_retries_total,
	// oracle_faults_total and oracle_degraded_queries_total.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.BackoffBaseMS <= 0 {
		o.BackoffBaseMS = 1
	}
	if o.BackoffMaxMS <= 0 {
		o.BackoffMaxMS = 1000
	}
	return o
}

// Stats is a point-in-time snapshot of the wrapper's accounting.
type Stats struct {
	// Retries counts re-attempted probes (attempt 2 and beyond).
	Retries int64
	// Faults counts failed probe attempts, including ones that later
	// succeeded on retry.
	Faults int64
	// Degraded counts probes answered by the degradation policy (skipped
	// or substituted) after exhausting retries.
	Degraded int64
	// BackoffMS is the total virtual backoff delay accumulated.
	BackoffMS float64
}

// Oracle wraps an oracle with retries, an error budget and a degradation
// policy. It implements sampling.ErrOracle; per-probe decisions depend only
// on (query, configuration, attempt) and slot order, so results are
// identical at every parallelism level.
type Oracle struct {
	inner sampling.Oracle
	opts  Options

	retries  *obs.Counter
	faults   *obs.Counter
	degraded *obs.Counter

	nRetries   atomic.Int64
	nFaults    atomic.Int64
	nDegraded  atomic.Int64
	budgetUsed atomic.Int64
	backoffUMS atomic.Int64 // total backoff in virtual microseconds
}

// Wrap hardens o with opts. An infallible inner oracle never fails, so
// wrapping it changes no value and no call count.
func Wrap(o sampling.Oracle, opts Options) *Oracle {
	opts = opts.withDefaults()
	if opts.Policy == Conservative && opts.Fallback == nil {
		panic("resilience: policy Conservative requires Options.Fallback")
	}
	w := &Oracle{inner: o, opts: opts}
	if opts.Metrics != nil {
		w.retries = opts.Metrics.Counter("oracle_retries_total")
		w.faults = opts.Metrics.Counter("oracle_faults_total")
		w.degraded = opts.Metrics.Counter("oracle_degraded_queries_total")
	}
	return w
}

// Stats returns the wrapper's accounting so far.
func (w *Oracle) Stats() Stats {
	return Stats{
		Retries:   w.nRetries.Load(),
		Faults:    w.nFaults.Load(),
		Degraded:  w.nDegraded.Load(),
		BackoffMS: float64(w.backoffUMS.Load()) / 1000,
	}
}

// N implements sampling.Oracle.
func (w *Oracle) N() int { return w.inner.N() }

// K implements sampling.Oracle.
func (w *Oracle) K() int { return w.inner.K() }

// Calls implements sampling.Oracle. Every attempt — including failed and
// retried ones — charges the inner oracle, matching a real what-if service
// that burns optimizer time before failing.
func (w *Oracle) Calls() int64 { return w.inner.Calls() }

// Cost implements sampling.Oracle by delegating to the inner oracle
// directly, bypassing retries and degradation: the samplers always take
// BatchCostErr, so Cost exists only to satisfy consumers of the
// infallible interface.
func (w *Oracle) Cost(i, j int) float64 { return w.inner.Cost(i, j) }

// BatchCostErr implements sampling.ErrOracle. The whole batch is
// evaluated once through the inner oracle; each retry round re-evaluates
// only the slots that failed with a retryable error, as one sub-batch in
// slot order after their seeded backoff; whatever still fails is then
// degraded per the policy in slot order, so the error budget always runs
// out on the same probe.
func (w *Oracle) BatchCostErr(pairs []sampling.Pair, out []float64, errs []error, parallelism int) {
	sampling.Eval(w.inner, pairs, out, errs, parallelism)
	var retry []int // slots of pairs still worth another attempt
	for s, err := range errs[:len(pairs)] {
		if err != nil {
			w.fault()
			if !IsPermanent(err) {
				retry = append(retry, s)
			}
		}
	}
	for attempt := 1; attempt <= w.opts.MaxRetries && len(retry) > 0; attempt++ {
		sub := make([]sampling.Pair, len(retry))
		for k, s := range retry {
			w.nRetries.Add(1)
			w.retries.Inc()
			w.backoff(pairs[s].Q, pairs[s].J, attempt)
			sub[k] = pairs[s]
		}
		subOut := make([]float64, len(sub))
		subErrs := make([]error, len(sub))
		sampling.Eval(w.inner, sub, subOut, subErrs, parallelism)
		next := retry[:0]
		for k, s := range retry {
			out[s], errs[s] = subOut[k], subErrs[k]
			if errs[s] != nil {
				w.fault()
				if !IsPermanent(errs[s]) {
					next = append(next, s)
				}
			}
		}
		retry = next
	}
	for s, err := range errs[:len(pairs)] {
		if err != nil {
			out[s], errs[s] = w.degrade(pairs[s].Q, pairs[s].J, err)
		}
	}
}

// fault counts one failed probe attempt.
func (w *Oracle) fault() {
	w.nFaults.Add(1)
	w.faults.Inc()
}

// backoff accrues (and optionally sleeps) the jittered exponential delay
// before retry `attempt` of probe (i, j).
func (w *Oracle) backoff(i, j, attempt int) {
	d := w.opts.BackoffBaseMS * float64(int64(1)<<uint(minIntR(attempt-1, 30)))
	if d > w.opts.BackoffMaxMS {
		d = w.opts.BackoffMaxMS
	}
	// Jitter in [0.5, 1): decorrelates concurrent retry storms while
	// staying a pure function of (seed, i, j, attempt).
	u := float64(mix64(w.opts.Seed, uint64(i)<<32|uint64(uint32(j)), uint64(attempt))>>11) / (1 << 53)
	d *= 0.5 + 0.5*u
	w.backoffUMS.Add(int64(d * 1000))
	if w.opts.Sleep != nil {
		w.opts.Sleep(d)
	}
}

// degrade resolves an exhausted probe per the configured policy.
func (w *Oracle) degrade(i, j int, cause error) (float64, error) {
	switch w.opts.Policy {
	case Skip, Conservative:
		if b := w.opts.ErrorBudget; b > 0 && w.budgetUsed.Add(1) > int64(b) {
			return 0, fmt.Errorf("probe (%d,%d): %w (budget %d, cause: %v)",
				i, j, ErrBudgetExhausted, b, cause)
		}
		w.nDegraded.Add(1)
		w.degraded.Inc()
		if w.opts.Policy == Skip {
			return 0, fmt.Errorf("probe (%d,%d) failed after retries (%v): %w",
				i, j, cause, sampling.ErrSkipQuery)
		}
		return w.opts.Fallback(i, j), nil
	default:
		return 0, fmt.Errorf("resilience: probe (%d,%d) failed after %d attempts: %w",
			i, j, w.opts.MaxRetries+1, cause)
	}
}

// mix64 is a splitmix64-style avalanche of three words — the deterministic
// randomness source for jitter (and, in the fault-injection harness, for
// fault decisions).
func mix64(a, b, c uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash64 exposes mix64 for decorators (the fault-injection harness) that
// need the same deterministic decision source.
func Hash64(a, b, c uint64) uint64 { return mix64(a, b, c) }

func minIntR(a, b int) int {
	if a < b {
		return a
	}
	return b
}

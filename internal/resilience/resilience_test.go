package resilience

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"physdes/internal/obs"
	"physdes/internal/sampling"
)

// flaky is a scripted fallible oracle: fail[i][j] is the number of times
// probe (i, j) fails before succeeding; -1 fails forever (transient),
// -2 fails forever with a permanent error. batches records the pairs of
// every batch it was handed.
type flaky struct {
	n, k    int
	fail    map[[2]int]int
	tries   map[[2]int]int64
	calls   int64
	batches [][]sampling.Pair
}

func newFlaky(n, k int) *flaky {
	return &flaky{n: n, k: k, fail: map[[2]int]int{}, tries: map[[2]int]int64{}}
}

func (f *flaky) attempts(i, j int) int64 { return f.tries[[2]int{i, j}] }

func (f *flaky) Cost(i, j int) float64 {
	c, err := f.probe(i, j)
	if err != nil {
		panic(err)
	}
	return c
}

func (f *flaky) probe(i, j int) (float64, error) {
	f.calls++
	key := [2]int{i, j}
	f.tries[key]++
	a := f.tries[key]
	n := f.fail[key]
	switch {
	case n == -2:
		return 0, Permanent(fmt.Errorf("probe (%d,%d): schema missing", i, j))
	case n == -1 || int64(n) >= a:
		return 0, fmt.Errorf("probe (%d,%d): transient attempt %d", i, j, a)
	}
	return float64(100*i + j), nil
}

func (f *flaky) BatchCostErr(pairs []sampling.Pair, out []float64, errs []error, _ int) {
	f.batches = append(f.batches, append([]sampling.Pair(nil), pairs...))
	for s, p := range pairs {
		out[s], errs[s] = f.probe(p.Q, p.J)
	}
}

func (f *flaky) N() int       { return f.n }
func (f *flaky) K() int       { return f.k }
func (f *flaky) Calls() int64 { return f.calls }

// costErr probes one pair through the wrapper's batch path.
func costErr(w *Oracle, i, j int) (float64, error) {
	var out [1]float64
	var errs [1]error
	w.BatchCostErr([]sampling.Pair{{Q: i, J: j}}, out[:], errs[:], 1)
	return out[0], errs[0]
}

func TestRetrySucceedsWithinBudget(t *testing.T) {
	f := newFlaky(4, 2)
	f.fail[[2]int{1, 0}] = 2 // two transient failures, then success
	w := Wrap(f, Options{MaxRetries: 3, Seed: 7})
	c, err := costErr(w, 1, 0)
	if err != nil {
		t.Fatalf("costErr: %v", err)
	}
	if c != 100 {
		t.Errorf("cost = %v, want 100", c)
	}
	if got := f.attempts(1, 0); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	st := w.Stats()
	if st.Retries != 2 || st.Faults != 2 || st.Degraded != 0 {
		t.Errorf("stats = %+v, want 2 retries, 2 faults, 0 degraded", st)
	}
	if st.BackoffMS <= 0 {
		t.Error("expected accumulated virtual backoff")
	}
}

func TestRetryExhaustionFailPolicy(t *testing.T) {
	f := newFlaky(4, 2)
	f.fail[[2]int{0, 1}] = -1
	w := Wrap(f, Options{MaxRetries: 2})
	_, err := costErr(w, 0, 1)
	if err == nil {
		t.Fatal("want error after exhausted retries")
	}
	if errors.Is(err, sampling.ErrSkipQuery) {
		t.Error("Fail policy must not degrade to ErrSkipQuery")
	}
	if got := f.attempts(0, 1); got != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", got)
	}
}

func TestPermanentErrorSkipsRetries(t *testing.T) {
	f := newFlaky(4, 2)
	f.fail[[2]int{2, 1}] = -2
	w := Wrap(f, Options{MaxRetries: 5, Policy: Skip})
	_, err := costErr(w, 2, 1)
	if !errors.Is(err, sampling.ErrSkipQuery) {
		t.Fatalf("err = %v, want ErrSkipQuery", err)
	}
	if got := f.attempts(2, 1); got != 1 {
		t.Errorf("attempts = %d, want 1 (permanent errors are not retried)", got)
	}
}

func TestSkipPolicyAndErrorBudget(t *testing.T) {
	f := newFlaky(8, 2)
	for q := 0; q < 3; q++ {
		f.fail[[2]int{q, 0}] = -1
	}
	reg := obs.NewRegistry()
	w := Wrap(f, Options{MaxRetries: 1, Policy: Skip, ErrorBudget: 2, Metrics: reg})

	for q := 0; q < 2; q++ {
		if _, err := costErr(w, q, 0); !errors.Is(err, sampling.ErrSkipQuery) {
			t.Fatalf("probe %d: err = %v, want ErrSkipQuery", q, err)
		}
	}
	// Third degradation exceeds the budget.
	if _, err := costErr(w, 2, 0); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	st := w.Stats()
	if st.Degraded != 2 {
		t.Errorf("degraded = %d, want 2", st.Degraded)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["oracle_degraded_queries_total"]; got != 2 {
		t.Errorf("oracle_degraded_queries_total = %d, want 2", got)
	}
	if got := snap.Counters["oracle_retries_total"]; got != st.Retries {
		t.Errorf("oracle_retries_total = %d, want %d", got, st.Retries)
	}
	if got := snap.Counters["oracle_faults_total"]; got != st.Faults {
		t.Errorf("oracle_faults_total = %d, want %d", got, st.Faults)
	}
}

func TestConservativePolicySubstitutesFallback(t *testing.T) {
	f := newFlaky(4, 2)
	f.fail[[2]int{3, 1}] = -1
	w := Wrap(f, Options{MaxRetries: 1, Policy: Conservative,
		Fallback: func(i, j int) float64 { return 1e9 + float64(i) }})
	c, err := costErr(w, 3, 1)
	if err != nil {
		t.Fatalf("costErr: %v", err)
	}
	if c != 1e9+3 {
		t.Errorf("cost = %v, want fallback 1e9+3", c)
	}
	if w.Stats().Degraded != 1 {
		t.Errorf("degraded = %d, want 1", w.Stats().Degraded)
	}
}

func TestBackoffDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		f := newFlaky(4, 2)
		f.fail[[2]int{1, 1}] = 3
		w := Wrap(f, Options{MaxRetries: 3, Seed: 42})
		if _, err := costErr(w, 1, 1); err != nil {
			t.Fatalf("costErr: %v", err)
		}
		return w.Stats().BackoffMS
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("backoff schedule not deterministic: %v vs %v", a, b)
	}
	// A different seed produces a different jitter schedule.
	f := newFlaky(4, 2)
	f.fail[[2]int{1, 1}] = 3
	w := Wrap(f, Options{MaxRetries: 3, Seed: 43})
	if _, err := costErr(w, 1, 1); err != nil {
		t.Fatalf("costErr: %v", err)
	}
	if w.Stats().BackoffMS == a {
		t.Error("expected seed to perturb the jitter schedule")
	}
}

func TestBackoffBoundedByMax(t *testing.T) {
	var delays []float64
	f := newFlaky(2, 2)
	f.fail[[2]int{0, 0}] = -1
	w := Wrap(f, Options{MaxRetries: 12, BackoffBaseMS: 1, BackoffMaxMS: 8,
		Sleep: func(ms float64) { delays = append(delays, ms) }})
	costErr(w, 0, 0)
	if len(delays) != 12 {
		t.Fatalf("got %d delays, want 12", len(delays))
	}
	for a, d := range delays {
		if d > 8 {
			t.Errorf("delay[%d] = %v exceeds BackoffMaxMS", a, d)
		}
		if d <= 0 {
			t.Errorf("delay[%d] = %v, want positive", a, d)
		}
	}
}

func TestBatchCostErrMatchesSerial(t *testing.T) {
	mk := func() *Oracle {
		f := newFlaky(16, 3)
		f.fail[[2]int{2, 1}] = 1
		f.fail[[2]int{5, 0}] = -1
		return Wrap(f, Options{MaxRetries: 2, Policy: Skip, Seed: 9})
	}
	var pairs []sampling.Pair
	for q := 0; q < 16; q++ {
		for j := 0; j < 3; j++ {
			pairs = append(pairs, sampling.Pair{Q: q, J: j})
		}
	}
	ref := mk()
	wantOut := make([]float64, len(pairs))
	wantErrs := make([]error, len(pairs))
	ref.BatchCostErr(pairs, wantOut, wantErrs, 1)
	for _, p := range []int{2, 4, 8} {
		w := mk()
		out := make([]float64, len(pairs))
		errs := make([]error, len(pairs))
		w.BatchCostErr(pairs, out, errs, p)
		for i := range pairs {
			if out[i] != wantOut[i] {
				t.Fatalf("parallelism %d: out[%d] = %v, want %v", p, i, out[i], wantOut[i])
			}
			if (errs[i] == nil) != (wantErrs[i] == nil) ||
				(errs[i] != nil && errors.Is(errs[i], sampling.ErrSkipQuery) != errors.Is(wantErrs[i], sampling.ErrSkipQuery)) {
				t.Fatalf("parallelism %d: errs[%d] = %v, want %v", p, i, errs[i], wantErrs[i])
			}
		}
	}
}

func TestWrapInfallibleOracleIsTransparent(t *testing.T) {
	f := newFlaky(4, 2) // no scripted failures
	w := Wrap(f, Options{MaxRetries: 3, Policy: Skip})
	for q := 0; q < 4; q++ {
		for j := 0; j < 2; j++ {
			c, err := costErr(w, q, j)
			if err != nil {
				t.Fatalf("costErr(%d,%d): %v", q, j, err)
			}
			if want := float64(100*q + j); c != want {
				t.Errorf("cost(%d,%d) = %v, want %v", q, j, c, want)
			}
		}
	}
	st := w.Stats()
	if st.Retries != 0 || st.Faults != 0 || st.Degraded != 0 {
		t.Errorf("stats = %+v, want all zero on a clean oracle", st)
	}
	if w.Calls() != 8 {
		t.Errorf("Calls = %d, want 8", w.Calls())
	}
}

// A batch is evaluated once; each retry round re-evaluates only the slots
// that failed retryably, as one sub-batch in slot order; what stays failed
// degrades in slot order, so the error budget always runs out on the same
// probe.
func TestBatchRetriesFailedSlotsOnly(t *testing.T) {
	f := newFlaky(8, 1)
	f.fail[[2]int{1, 0}] = 1  // recovers on the first retry
	f.fail[[2]int{3, 0}] = -2 // permanent: never retried
	f.fail[[2]int{5, 0}] = -1 // fails forever
	f.fail[[2]int{6, 0}] = -1 // fails forever
	w := Wrap(f, Options{MaxRetries: 2, Policy: Skip, ErrorBudget: 2, Seed: 3})
	var pairs []sampling.Pair
	for q := 0; q < 8; q++ {
		pairs = append(pairs, sampling.Pair{Q: q, J: 0})
	}
	out := make([]float64, len(pairs))
	errs := make([]error, len(pairs))
	w.BatchCostErr(pairs, out, errs, 4)

	want := [][]sampling.Pair{
		pairs,
		{{Q: 1, J: 0}, {Q: 5, J: 0}, {Q: 6, J: 0}},
		{{Q: 5, J: 0}, {Q: 6, J: 0}},
	}
	if !reflect.DeepEqual(f.batches, want) {
		t.Errorf("inner batches = %v, want %v", f.batches, want)
	}
	if out[1] != 100 || errs[1] != nil {
		t.Errorf("slot 1 = %v, %v; want the retried value 100", out[1], errs[1])
	}
	for _, s := range []int{3, 5} {
		if !errors.Is(errs[s], sampling.ErrSkipQuery) {
			t.Errorf("slot %d: err = %v, want ErrSkipQuery", s, errs[s])
		}
	}
	if !errors.Is(errs[6], ErrBudgetExhausted) {
		t.Errorf("slot 6: err = %v, want ErrBudgetExhausted (third degradation in slot order)", errs[6])
	}
	st := w.Stats()
	if st.Retries != 5 || st.Faults != 8 || st.Degraded != 2 {
		t.Errorf("stats = %+v, want 5 retries, 8 faults, 2 degraded", st)
	}
	if f.Calls() != 13 {
		t.Errorf("calls = %d, want 13 (8 + 3 + 2 attempts)", f.Calls())
	}
}

package sampling

import (
	"errors"
	"fmt"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// TestSharedOracle pins the atom-sharing oracle against direct what-if
// calls (optimizer.Optimizer.Cost): same dimensions, bit-identical costs
// on both the serial and batch paths, a strictly smaller what-if bill, and
// a working end-to-end Run.
func TestSharedOracle(t *testing.T) {
	cat := catalog.TPCD(0.01)
	w, err := workload.GenTPCD(cat, 60, 65)
	if err != nil {
		t.Fatal(err)
	}
	shipdate := physical.NewIndex("lineitem", []string{"l_shipdate"})
	configs := []*physical.Configuration{
		physical.NewConfiguration("empty"),
		physical.NewConfiguration("ix1", shipdate),
		physical.NewConfiguration("ix2", shipdate,
			physical.NewIndex("orders", []string{"o_orderdate"})),
	}
	o := NewSharedOracle(optimizer.NewCached(optimizer.New(cat)), w, configs)
	if o.N() != 60 || o.K() != 3 {
		t.Fatalf("shared oracle dims %d×%d, want 60×3", o.N(), o.K())
	}

	direct := optimizer.New(cat)
	directCost := func(i, j int) float64 { return direct.Cost(w.Queries[i].Analysis, configs[j]) }
	for i := 0; i < o.N(); i++ {
		for j := 0; j < o.K(); j++ {
			if got, want := o.Cost(i, j), directCost(i, j); got != want {
				t.Fatalf("Cost(%d, %d) = %v, direct what-if call says %v", i, j, got, want)
			}
		}
	}
	// The full surface repeats the shipdate singleton across ix1 and ix2,
	// so sharing must charge strictly fewer inner calls than N*K.
	if o.Calls() >= direct.Calls() {
		t.Errorf("sharing saved nothing: %d calls vs %d direct", o.Calls(), direct.Calls())
	}

	// The batch path returns the same values and, with the surface already
	// memoized, charges nothing new.
	pairs := make([]Pair, 0, o.N()*o.K())
	for i := 0; i < o.N(); i++ {
		for j := 0; j < o.K(); j++ {
			pairs = append(pairs, Pair{Q: i, J: j})
		}
	}
	out := make([]float64, len(pairs))
	before := o.Calls()
	o.BatchCost(pairs, out, 4)
	for n, p := range pairs {
		if want := directCost(p.Q, p.J); out[n] != want {
			t.Fatalf("BatchCost pair %d = %v, want %v", n, out[n], want)
		}
	}
	if o.Calls() != before {
		t.Errorf("re-batching a memoized surface charged %d new calls", o.Calls()-before)
	}

	res, err := Run(o, Options{
		Scheme: Delta, Alpha: 0.9, RNG: stats.NewRNG(66),
		TemplateIndex: w.TemplateIndexOf(), TemplateCount: w.NumTemplates(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best < 0 || res.Best >= len(configs) {
		t.Errorf("best = %d", res.Best)
	}
}

// scriptedErrOracle fails the pairs listed in fail and counts the batches
// it was handed: the minimal ErrOracle.
type scriptedErrOracle struct {
	*MatrixOracle
	fail    map[Pair]error
	batches int
}

func (o *scriptedErrOracle) BatchCostErr(pairs []Pair, out []float64, errs []error, parallelism int) {
	o.batches++
	o.MatrixOracle.BatchCost(pairs, out, parallelism)
	for i, p := range pairs {
		errs[i] = o.fail[p]
	}
}

var errSentinel = errors.New("sentinel")

// TestEvalPathsAndLiveBatch pins Eval's routing: an ErrOracle takes its
// fallible batch path once for the whole batch, even past a failing slot;
// an infallible BatchOracle matches pairwise Cost and clears errs; and the
// live SharedOracle's pooled batch path matches its serial path. rowErr
// ranks a hard error above a skip request.
func TestEvalPathsAndLiveBatch(t *testing.T) {
	cat := catalog.TPCD(0.01)
	w, err := workload.GenTPCD(cat, 40, 67)
	if err != nil {
		t.Fatal(err)
	}
	configs := []*physical.Configuration{
		physical.NewConfiguration("empty"),
		physical.NewConfiguration("ix", physical.NewIndex("lineitem", []string{"l_shipdate"})),
	}
	live := func() *SharedOracle {
		return NewSharedOracle(optimizer.NewCached(optimizer.New(cat)), w, configs)
	}
	serial := live()

	pairs := []Pair{{Q: 0, J: 0}, {Q: 1, J: 1}, {Q: 2, J: 0}, {Q: 3, J: 1}}
	out := make([]float64, len(pairs))
	errs := []error{errSentinel, errSentinel, errSentinel, errSentinel}
	Eval(serial, pairs, out, errs, 1)
	for i, p := range pairs {
		if errs[i] != nil {
			t.Fatalf("pair %d errored: %v", i, errs[i])
		}
		if want := serial.Cost(p.Q, p.J); out[i] != want {
			t.Errorf("pair %d: Eval %v, serial %v", i, out[i], want)
		}
	}
	// A fresh memo, so the pooled batch computes every atom itself.
	pooled := live()
	batched := make([]float64, len(pairs))
	pooled.BatchCost(pairs, batched, 2)
	for i := range pairs {
		if batched[i] != out[i] {
			t.Errorf("pair %d: BatchCost %v diverged from serial %v", i, batched[i], out[i])
		}
	}
	if pooled.Calls() != serial.Calls() {
		t.Errorf("pooled batch charged %d calls, serial path %d", pooled.Calls(), serial.Calls())
	}

	m, _ := synthMatrix(10, 2, 2, 0.1, 1, 3)
	skip := fmt.Errorf("probe: %w", ErrSkipQuery)
	eo := &scriptedErrOracle{MatrixOracle: NewMatrixOracle(m),
		fail: map[Pair]error{{Q: 1, J: 1}: skip, {Q: 3, J: 1}: errSentinel}}
	Eval(eo, pairs, out, errs, 1)
	if eo.batches != 1 || eo.Calls() != int64(len(pairs)) {
		t.Errorf("ErrOracle saw %d batches and %d calls, want 1 batch of %d", eo.batches, eo.Calls(), len(pairs))
	}
	if errs[0] != nil || errs[1] != skip || errs[2] != nil || errs[3] != errSentinel {
		t.Errorf("errs = %v", errs)
	}
	if got := rowErr(errs); got != errSentinel {
		t.Errorf("rowErr = %v, want the hard error over the skip", got)
	}
	if got := rowErr(errs[:3]); got != skip {
		t.Errorf("rowErr = %v, want the skip request", got)
	}
	if got := rowErr(errs[:1]); got != nil {
		t.Errorf("rowErr = %v on a clean row", got)
	}
}

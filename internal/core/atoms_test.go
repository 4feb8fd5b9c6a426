package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"physdes/internal/faultinject"
	"physdes/internal/obs"
	"physdes/internal/obs/recorder"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sampling"
	"physdes/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// directOracle is the reference what-if oracle: every probe is its own
// optimizer call and nothing is shared. Installed through
// Options.WrapOracle in place of the atom memo, it is what Select's
// costing must reproduce bit for bit.
type directOracle struct {
	opt     *optimizer.Optimizer
	w       *workload.Workload
	configs []*physical.Configuration
}

func (d directOracle) Cost(i, j int) float64 {
	return d.opt.Cost(d.w.Queries[i].Analysis, d.configs[j])
}
func (d directOracle) N() int       { return d.w.Size() }
func (d directOracle) K() int       { return len(d.configs) }
func (d directOracle) Calls() int64 { return d.opt.Calls() }

// BatchCost runs the batch on the optimizer's worker pool.
func (d directOracle) BatchCost(pairs []sampling.Pair, out []float64, parallelism int) {
	reqs := make([]optimizer.Request, len(pairs))
	for i, p := range pairs {
		reqs[i] = optimizer.Request{Analysis: d.w.Queries[p.Q].Analysis, Config: d.configs[p.J]}
	}
	d.opt.BatchInto(reqs, out, parallelism)
}

// withDirect returns a WrapOracle that swaps the atom memo for
// directOracle and then applies wrap (nil: no further decoration).
func withDirect(d directOracle, wrap func(sampling.Oracle) sampling.Oracle) func(sampling.Oracle) sampling.Oracle {
	return func(sampling.Oracle) sampling.Oracle {
		if wrap == nil {
			return d
		}
		return wrap(d)
	}
}

// TestPrCSGuaranteeWithAtomSharing re-pins the paper's Pr(CS) >= α
// guarantee with the atom-sharing oracle in the loop: over 200 seeded
// Monte-Carlo selections the observed correct-selection rate must stay
// within three binomial standard errors of α, both with a healthy oracle
// and with 5% injected transient faults riding through the retry layer. Sharing returns bit-identical probe
// values, so a regression here means the atom store broke exactness, not
// the statistics.
func TestPrCSGuaranteeWithAtomSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo harness skipped in -short mode")
	}
	const (
		trials = 200
		alpha  = 0.9
	)
	opt, w, space := scenario(t, 500, 4, 21)
	truth := exactBest(opt, w, space)
	m := workload.ComputeCostMatrix(opt, w, space)
	bestCost := m.TotalCost(truth)
	for j := range space {
		if j == truth {
			continue
		}
		if gap := (m.TotalCost(j) - bestCost) / bestCost; gap < 0.01 {
			t.Fatalf("fixture has a near-tie: config %d within %.2f%% of best", j, 100*gap)
		}
	}

	cases := []struct {
		name string
		mod  func(o *Options)
	}{
		{name: "clean", mod: func(o *Options) {}},
		{name: "transient-faults", mod: func(o *Options) {
			// 5% per-attempt transient faults; 5 retries push the residual
			// permanent-failure probability per probe to 0.05^6 ≈ 1.6e-8, so
			// no trial aborts over the harness's probe volume.
			o.MaxRetries = 5
			o.WrapOracle = func(inner sampling.Oracle) sampling.Oracle {
				return faultinject.New(inner, faultinject.Options{Seed: 77, TransientRate: 0.05})
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			correct := 0
			var shared, exhaustive int64
			for i := 0; i < trials; i++ {
				o := DefaultOptions(uint64(1000 + i))
				o.Alpha = alpha
				tc.mod(&o)
				sel, err := Select(opt, w, space, o)
				if err != nil {
					t.Fatal(err)
				}
				if sel.BestIndex == truth {
					correct++
				}
				if sel.PrCS < alpha {
					t.Errorf("trial %d terminated with Pr(CS)=%v < α=%v", i, sel.PrCS, alpha)
				}
				shared += sel.OptimizerCalls
				exhaustive += sel.ExhaustiveCalls
			}
			rate := float64(correct) / trials
			stderr := math.Sqrt(alpha * (1 - alpha) / trials)
			floor := alpha - 3*stderr
			t.Logf("%s: correct-selection rate %.3f over %d trials (floor %.4f); %d shared calls vs %d exhaustive",
				tc.name, rate, trials, floor, shared, exhaustive)
			if rate < floor {
				t.Errorf("correct-selection rate %.3f < %.4f = α − 3·stderr with atom sharing on",
					rate, floor)
			}
		})
	}
}

// TestSelectAtomSharingBitIdentity pins the sharing layer's contract at the
// Selection level: a seeded Select must agree on every decision field with
// the same Select over directOracle — only the what-if call bill may
// differ, and it must differ in sharing's favor, both in the Selection and
// in the flight recorder's RunReport. The decision fields are additionally
// pinned to a golden fixture so an exactness regression shows up as a diff
// even if it breaks both paths symmetrically. Each run also checks the
// contract WrapOracle decorators rely on: the oracle they receive is a
// sampling.BatchOracle whose Calls() is the optimizer's counter.
func TestSelectAtomSharingBitIdentity(t *testing.T) {
	opt, w, space := scenario(t, 400, 4, 33)

	run := func(direct bool) (*Selection, *recorder.Recorder) {
		rec := recorder.New("select")
		o := DefaultOptions(91)
		o.TracePrCS = true
		o.Tracer = obs.NewTracerSinks(rec)
		var handed sampling.Oracle
		o.WrapOracle = func(inner sampling.Oracle) sampling.Oracle {
			handed = inner
			if direct {
				return directOracle{opt, w, space}
			}
			return inner
		}
		sel, err := Select(opt, w, space, o)
		rec.Finish(err)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := handed.(sampling.BatchOracle); !ok {
			t.Errorf("WrapOracle received %T, which does not implement sampling.BatchOracle", handed)
		}
		if handed.Calls() != opt.Calls() {
			t.Errorf("WrapOracle's oracle reports %d calls, optimizer counted %d", handed.Calls(), opt.Calls())
		}
		return sel, rec
	}
	selOn, recOn := run(false)
	selOff, recOff := run(true)

	// Every decision field must match; strip the call accounting before
	// comparing so a mismatch anywhere else fails loudly.
	normalize := func(s *Selection) Selection {
		n := *s
		n.OptimizerCalls = 0
		return n
	}
	if a, b := normalize(selOn), normalize(selOff); !reflect.DeepEqual(a, b) {
		t.Fatalf("selection diverged from direct costing:\nshared: %+v\ndirect: %+v", a, b)
	}
	if selOn.OptimizerCalls >= selOff.OptimizerCalls {
		t.Errorf("atom sharing saved nothing: %d calls shared vs %d direct",
			selOn.OptimizerCalls, selOff.OptimizerCalls)
	}
	if on, off := recOn.Report().Oracle.Calls, recOff.Report().Oracle.Calls; on >= off {
		t.Errorf("recorder reports %d oracle calls shared vs %d direct; want strictly fewer", on, off)
	}

	got := fmt.Sprintf("best=%d prcs=%.6f sampled=%d strata=%d splits=%d eliminated=%v trace_len=%d\ncalls_shared=%d calls_direct=%d\n",
		selOn.BestIndex, selOn.PrCS, selOn.SampledQueries, selOn.Strata, selOn.Splits,
		selOn.Eliminated, len(selOn.PrCSTrace), selOn.OptimizerCalls, selOff.OptimizerCalls)
	golden := filepath.Join("testdata", "atom_sharing.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("selection diverged from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

package core

import (
	"reflect"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/faultinject"
	"physdes/internal/obs"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/resilience"
	"physdes/internal/sampling"
	"physdes/internal/sqlparse"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// crmScenario mirrors scenario() on the CRM mixed-DML trace.
func crmScenario(t *testing.T, n int, k int, seed uint64) (*optimizer.Optimizer, *workload.Workload, []*physical.Configuration) {
	t.Helper()
	cat := catalog.CRM()
	w, err := workload.GenCRM(cat, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat)
	analyses := make([]*sqlparse.Analysis, len(w.Queries))
	for i, q := range w.Queries {
		analyses[i] = q.Analysis
	}
	cands := physical.EnumerateCandidates(cat, analyses, physical.CandidateOptions{Covering: true, Views: false})
	space := physical.GenerateSpace(cat, cands, k, stats.NewRNG(seed+1),
		physical.SpaceOptions{MinStructures: 3, MaxStructures: 8})
	if len(space) < k {
		t.Fatalf("only %d configurations generated", len(space))
	}
	return opt, w, space
}

// TestSelectParallelDeterminism is the determinism contract: for a fixed
// seed, Select with an 8-worker pool must produce a Selection bit-identical
// to the serial run — same Best, same Pr(CS) down to the last float bit,
// same call accounting, strata, splits, eliminations and Pr(CS) trace —
// across both sampling schemes, both stratification modes of interest, and
// both workloads. It must hold under retries, injected faults, degradation
// and warm state too, both through the atom memo and through the
// one-call-per-probe directOracle: there the resilience counters
// (OracleRetries, OracleFaults, DegradedQueries) must match as well, and
// the memo must never cost a key twice.
func TestSelectParallelDeterminism(t *testing.T) {
	cases := []struct {
		name         string
		scheme       sampling.Scheme
		strat        sampling.StratMode
		conservative bool
	}{
		{"delta/progressive", sampling.Delta, sampling.Progressive, false},
		{"delta/fine", sampling.Delta, sampling.Fine, false},
		{"independent/progressive", sampling.Independent, sampling.Progressive, false},
		{"independent/fine", sampling.Independent, sampling.Fine, false},
		{"delta/progressive/conservative", sampling.Delta, sampling.Progressive, true},
	}
	workloads := []struct {
		name  string
		build func(t *testing.T) (*optimizer.Optimizer, *workload.Workload, []*physical.Configuration)
	}{
		{"tpcd", func(t *testing.T) (*optimizer.Optimizer, *workload.Workload, []*physical.Configuration) {
			return scenario(t, 600, 6, 3)
		}},
		{"crm", func(t *testing.T) (*optimizer.Optimizer, *workload.Workload, []*physical.Configuration) {
			return crmScenario(t, 500, 5, 4)
		}},
	}
	for _, wl := range workloads {
		opt, w, space := wl.build(t)
		for _, tc := range cases {
			if tc.conservative && wl.name != "tpcd" {
				continue // CRM bound derivation is minutes-slow; TPCD covers the path
			}
			t.Run(wl.name+"/"+tc.name, func(t *testing.T) {
				opts := func(par int) Options {
					return Options{
						Scheme:       tc.scheme,
						Strat:        tc.strat,
						Conservative: tc.conservative,
						Seed:         11,
						TracePrCS:    true,
						Parallelism:  par,
					}
				}
				serial, err := Select(opt, w, space, opts(1))
				if err != nil {
					t.Fatal(err)
				}
				parallel, err := Select(opt, w, space, opts(8))
				if err != nil {
					t.Fatal(err)
				}
				if parallel.BestIndex != serial.BestIndex {
					t.Errorf("Best diverged: parallel %d, serial %d", parallel.BestIndex, serial.BestIndex)
				}
				if parallel.PrCS != serial.PrCS {
					t.Errorf("PrCS diverged: parallel %v, serial %v", parallel.PrCS, serial.PrCS)
				}
				if parallel.OptimizerCalls != serial.OptimizerCalls {
					t.Errorf("OptimizerCalls diverged: parallel %d, serial %d",
						parallel.OptimizerCalls, serial.OptimizerCalls)
				}
				if parallel.SampledQueries != serial.SampledQueries {
					t.Errorf("SampledQueries diverged: parallel %d, serial %d",
						parallel.SampledQueries, serial.SampledQueries)
				}
				if !reflect.DeepEqual(parallel, serial) {
					t.Errorf("Selection not bit-identical:\nparallel: %+v\nserial:   %+v", parallel, serial)
				}
			})
		}
	}

	opt, w, space := scenario(t, 600, 6, 3)
	faulty := func(fo faultinject.Options) func(sampling.Oracle) sampling.Oracle {
		return func(inner sampling.Oracle) sampling.Oracle { return faultinject.New(inner, fo) }
	}
	resCases := []struct {
		name    string
		scheme  sampling.Scheme
		faulted bool
		apply   func(o *Options)
	}{
		{"none", sampling.Delta, false, func(o *Options) {}},
		{"retries/zero-faults", sampling.Delta, false, func(o *Options) {
			o.MaxRetries, o.Degrade = 3, resilience.Skip
			o.WrapOracle = faulty(faultinject.Options{Seed: 33})
		}},
		{"transient/skip", sampling.Delta, true, func(o *Options) {
			o.MaxRetries, o.Degrade = 2, resilience.Skip
			o.WrapOracle = faulty(faultinject.Options{Seed: 17, TransientRate: 0.05})
		}},
		{"transient/skip/independent", sampling.Independent, true, func(o *Options) {
			o.MaxRetries, o.Degrade = 2, resilience.Skip
			o.WrapOracle = faulty(faultinject.Options{Seed: 17, TransientRate: 0.05})
		}},
		{"conservative-degrade", sampling.Delta, true, func(o *Options) {
			o.Conservative, o.MaxRetries, o.Degrade = true, 1, resilience.Conservative
			o.WrapOracle = faulty(faultinject.Options{Seed: 23, TransientRate: 0.05, PermanentRate: 0.01})
		}},
		{"warm", sampling.Delta, false, nil}, // WarmState from a prior run, set below
		// A budget that binds inside the pilot: the pilot is planned at one
		// call per probe at every parallelism, even where atom sharing
		// charges fewer inner calls.
		{"maxcalls-in-pilot", sampling.Delta, false, func(o *Options) { o.MaxCalls = 100 }},
		{"maxcalls-in-pilot/independent", sampling.Independent, false, func(o *Options) { o.MaxCalls = 100 }},
		// Without retries every transient fault degrades its probe,
		// including pilot probes, which are not replaced.
		{"skip-no-retry", sampling.Delta, true, func(o *Options) {
			o.MaxRetries, o.Degrade = 0, resilience.Skip
			o.WrapOracle = faulty(faultinject.Options{Seed: 17, TransientRate: 0.05})
		}},
		{"skip-no-retry/independent", sampling.Independent, true, func(o *Options) {
			o.MaxRetries, o.Degrade = 0, resilience.Skip
			o.WrapOracle = faulty(faultinject.Options{Seed: 17, TransientRate: 0.05})
		}},
	}
	for _, oracleName := range []string{"atoms", "direct"} {
		for _, rc := range resCases {
			t.Run("tpcd/"+oracleName+"/"+rc.name, func(t *testing.T) {
				base := Options{Scheme: rc.scheme, Strat: sampling.Progressive, Seed: 11,
					TracePrCS: true}
				if rc.apply != nil {
					rc.apply(&base)
				}
				if oracleName == "direct" {
					base.WrapOracle = withDirect(directOracle{opt, w, space}, base.WrapOracle)
				}
				if rc.apply == nil {
					prior := base
					prior.Seed, prior.CaptureState, prior.Parallelism = 12, true, 1
					sel, err := Select(opt, w, space, prior)
					if err != nil {
						t.Fatal(err)
					}
					base.WarmState = sel.State
				}
				run := func(par int) *Selection {
					o := base
					o.Parallelism = par
					o.Metrics = obs.NewRegistry()
					sel, err := Select(opt, w, space, o)
					if err != nil {
						t.Fatalf("parallelism %d: %v", par, err)
					}
					if dups := o.Metrics.Snapshot().Counters["optimizer_duplicate_computations_total"]; dups != 0 {
						t.Errorf("parallelism %d: optimizer_duplicate_computations_total = %d, want 0", par, dups)
					}
					return sel
				}
				serial := run(1)
				if rc.faulted && serial.OracleFaults == 0 {
					t.Errorf("fault injection inert: %+v", serial)
				}
				for _, par := range []int{4, 8} {
					if got := run(par); !reflect.DeepEqual(got, serial) {
						t.Errorf("parallelism %d: Selection not bit-identical to serial\ngot:    %+v\nserial: %+v", par, got, serial)
					}
				}
			})
		}
	}
}

// TestSelectParallelismDefault pins the withDefaults contract: 0 resolves
// to all cores, negatives clamp to serial.
func TestSelectParallelismDefault(t *testing.T) {
	if got := (Options{}).withDefaults().Parallelism; got < 1 {
		t.Errorf("default Parallelism = %d, want >= 1", got)
	}
	if got := (Options{Parallelism: -3}).withDefaults().Parallelism; got != 1 {
		t.Errorf("negative Parallelism resolved to %d, want 1", got)
	}
}

package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"physdes/internal/faultinject"
	"physdes/internal/obs"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/resilience"
	"physdes/internal/sampling"
	"physdes/internal/workload"
)

// fnvTrace hashes a Pr(CS) trace bit for bit.
func fnvTrace(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestMemoGolden pins every observable output of Select with atom sharing
// on, in the runs where a what-if request repeats one already answered:
// Independent Sampling re-samples after splits, resilience retries
// re-request failed probes, and a call budget stops the run after the
// pilot. The conservative rows also pin the Section 6 bounds a live Select
// derives (vbound, clt); other rows print 0 for both. Any change to how the what-if memo answers repeats shows up as a
// diff. Regenerate with -update only when a change to the selections is
// intended.
func TestMemoGolden(t *testing.T) {
	faulty := func(o *Options) {
		o.MaxRetries, o.Degrade = 2, resilience.Skip
		o.WrapOracle = func(inner sampling.Oracle) sampling.Oracle {
			return faultinject.New(inner, faultinject.Options{Seed: 17, TransientRate: 0.05})
		}
	}
	conservative := func(o *Options) { o.Conservative, o.Rho = true, 50 }
	// repeats marks the rows whose runs re-request a (statement,
	// configuration) pair: Fine stratification never re-samples, and on the
	// CRM fixture only retries repeat a request.
	rows := []struct {
		name    string
		scheme  sampling.Scheme
		strat   sampling.StratMode
		apply   func(o *Options)
		repeats bool
	}{
		{"independent/progressive", sampling.Independent, sampling.Progressive, nil, true},
		{"independent/fine", sampling.Independent, sampling.Fine, nil, false},
		{"delta/retry-skip", sampling.Delta, sampling.Progressive, faulty, true},
		{"independent/retry-skip", sampling.Independent, sampling.Progressive, faulty, true},
		{"independent/maxcalls", sampling.Independent, sampling.Progressive, func(o *Options) { o.MaxCalls = 1000 }, true},
		{"independent/conservative", sampling.Independent, sampling.Progressive, conservative, true},
		{"delta/conservative", sampling.Delta, sampling.Progressive, conservative, true},
	}
	workloads := []struct {
		name  string
		build func(t *testing.T) (*optimizer.Optimizer, *workload.Workload, []*physical.Configuration)
		rows  []int
	}{
		{"tpcd", func(t *testing.T) (*optimizer.Optimizer, *workload.Workload, []*physical.Configuration) {
			return scenario(t, 1000, 6, 1)
		}, []int{0, 1, 2, 3, 4, 5, 6}},
		{"crm", func(t *testing.T) (*optimizer.Optimizer, *workload.Workload, []*physical.Configuration) {
			return crmScenario(t, 500, 5, 4)
		}, []int{2, 3}},
	}
	var got strings.Builder
	for _, wl := range workloads {
		opt, w, space := wl.build(t)
		for _, r := range wl.rows {
			row := rows[r]
			for _, par := range []int{1, 4} {
				o := Options{Scheme: row.scheme, Strat: row.strat, Seed: 11,
					TracePrCS: true, Parallelism: par, Metrics: obs.NewRegistry()}
				if row.apply != nil {
					row.apply(&o)
				}
				sel, err := Select(opt, w, space, o)
				if err != nil {
					t.Fatalf("%s/%s/par%d: %v", wl.name, row.name, par, err)
				}
				snap := o.Metrics.Snapshot()
				if dups := snap.Counters["optimizer_duplicate_computations_total"]; dups != 0 {
					t.Errorf("%s/%s/par%d: optimizer_duplicate_computations_total = %d, want 0", wl.name, row.name, par, dups)
				}
				hits := snap.Counters["optimizer_cache_hits_total"]
				if *update && row.repeats && hits == 0 {
					t.Errorf("%s/%s/par%d: the memo answered no request; the row pins nothing", wl.name, row.name, par)
				}
				t.Logf("%s/%s/par%d: optimizer_cache_hits_total=%d misses=%d", wl.name, row.name, par,
					hits, snap.Counters["optimizer_cache_misses_total"])
				fmt.Fprintf(&got, "%s/%s/par%d best=%d prcs=%.17g calls=%d sampled=%d strata=%d splits=%d retries=%d faults=%d degraded=%d trace=%d/%016x vbound=%.17g clt=%d\n",
					wl.name, row.name, par, sel.BestIndex, sel.PrCS, sel.OptimizerCalls, sel.SampledQueries,
					sel.Strata, sel.Splits, sel.OracleRetries, sel.OracleFaults, sel.DegradedQueries,
					len(sel.PrCSTrace), fnvTrace(sel.PrCSTrace), sel.VarianceBound, sel.CLTMinSamples)
			}
		}
	}
	golden := filepath.Join("testdata", "memo.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("selections diverged from %s\n--- got ---\n%s--- want ---\n%s", golden, got.String(), want)
	}
}

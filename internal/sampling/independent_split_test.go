package sampling

import (
	"testing"

	"physdes/internal/stats"
)

// Force the Independent sampler through Algorithm 2: few templates with
// wildly different magnitudes, a tiny gap, and a small n_min so the split
// gate (expected allocation ≥ 2·n_min, all templates observed) opens.
func TestIndependentProgressiveSplits(t *testing.T) {
	m, tmplIdx := synthMatrix(6000, 2, 3, 0.002, 3, 61)
	res, err := Run(NewMatrixOracle(m), Options{
		Scheme: Independent, Strat: Progressive,
		MaxCalls: 9000, NMin: 8,
		RNG:           stats.NewRNG(62),
		TemplateIndex: tmplIdx, TemplateCount: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Splits == 0 {
		t.Errorf("independent progressive run performed no splits (strata=%d)", res.Strata)
	}
	// Splits sum across configurations; Strata reports the most-refined
	// configuration's stratum count (per-configuration stratification).
	if res.Strata < 2 {
		t.Errorf("no configuration ended up stratified: strata=%d splits=%d", res.Strata, res.Splits)
	}
	if res.Strata > res.Splits+1 {
		t.Errorf("strata %d exceed splits %d + 1", res.Strata, res.Splits)
	}
}

func TestIndependentEliminationFires(t *testing.T) {
	m, tmplIdx := synthMatrix(3000, 4, 3, 0.05, 1, 63)
	res, err := Run(NewMatrixOracle(m), Options{
		Scheme: Independent, Strat: NoStrat,
		Alpha: 0.999, StabilityWindow: 20, NMin: 10,
		EliminationThreshold: 0.99,
		RNG:                  stats.NewRNG(64),
		TemplateIndex:        tmplIdx, TemplateCount: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	elim := 0
	for _, e := range res.Eliminated {
		if e {
			elim++
		}
	}
	if elim == 0 {
		t.Error("independent sampler never eliminated a configuration")
	}
	if res.Eliminated[res.Best] {
		t.Error("best must survive elimination")
	}
}

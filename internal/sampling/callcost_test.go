package sampling

import (
	"testing"

	"physdes/internal/stats"
)

// With two strata of equal variance but very different optimization
// overheads, the Section 5.2 overhead weighting must pull samples toward
// the cheap stratum, for both schemes' allocation.
func TestCallCostShiftsAllocation(t *testing.T) {
	const n = 2000
	// Template 0 queries are cheap to optimize, template 1 queries are
	// 50× more expensive. Cost distributions are identical in shape.
	m, tmplIdx := synthMatrix(n, 2, 2, 0.02, 2, 44)
	callCost := func(q int) float64 {
		if tmplIdx[q] == 1 {
			return 50
		}
		return 1
	}

	for _, scheme := range []Scheme{Delta, Independent} {
		countByTemplate := func(withCost bool) [2]int {
			e := newEngine(NewMatrixOracle(m), Options{
				Scheme: scheme, Strat: Fine, NMin: 5, MaxCalls: 800,
				RNG:           stats.NewRNG(9),
				TemplateIndex: tmplIdx, TemplateCount: 2,
				CallCost: map[bool]func(int) float64{true: callCost, false: nil}[withCost],
			}.withDefaults())
			if _, err := e.run(); err != nil {
				t.Fatal(err)
			}
			var counts [2]int
			for tmpl, perCfg := range e.tCount {
				for _, c := range perCfg {
					counts[tmpl] += c
				}
			}
			return counts
		}

		plain := countByTemplate(false)
		weighted := countByTemplate(true)
		t.Logf("%v: allocation plain=%v overhead-weighted=%v", scheme, plain, weighted)

		// With weighting, the cheap template's share must grow.
		plainShare := float64(plain[0]) / float64(plain[0]+plain[1])
		weightedShare := float64(weighted[0]) / float64(weighted[0]+weighted[1])
		if weightedShare <= plainShare {
			t.Errorf("%v: overhead weighting did not shift samples to the cheap stratum: %.2f vs %.2f",
				scheme, weightedShare, plainShare)
		}
	}
}

// CallCost must not change the estimators, only the allocation: a constant
// overhead function is a no-op.
func TestConstantCallCostIsNoop(t *testing.T) {
	m, tmplIdx := synthMatrix(1500, 2, 4, 0.05, 1, 45)
	run := func(cc func(int) float64) (int, float64) {
		res, err := Run(NewMatrixOracle(m), Options{
			Scheme: Delta, Strat: Progressive, Alpha: 0.9,
			RNG:           stats.NewRNG(11),
			TemplateIndex: tmplIdx, TemplateCount: 4,
			CallCost: cc,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.SampledQueries, res.PrCS
	}
	n1, p1 := run(nil)
	n2, p2 := run(func(int) float64 { return 7 })
	if n1 != n2 || p1 != p2 {
		t.Errorf("constant CallCost changed the run: (%d, %v) vs (%d, %v)", n1, p1, n2, p2)
	}
}

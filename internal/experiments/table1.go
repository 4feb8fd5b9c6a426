package experiments

import (
	"math"
	"time"

	"physdes/internal/bounds"
	"physdes/internal/obs"
	"physdes/internal/stats"
)

// SigmaRow is one cell of Table 1: the wall-clock time of approximating
// σ²_max for N intervals at granularity ρ.
type SigmaRow struct {
	N       int
	Rho     float64
	Elapsed time.Duration
	// Sigma2 and Theta report the result so accuracy can be eyeballed
	// alongside the runtime.
	Sigma2, Theta float64
	Cells         int
}

// SigmaIntervals synthesizes N cost intervals with the profile the Section
// 6.1 bounds produce for a TPC-D workload: most intervals are narrow (the
// base and best configurations agree on cheap queries), a minority are wide
// (index/view-sensitive queries), and the magnitudes span the workload's
// cost range. Widths average ≈1 cost unit so the DP table grows as Σwidthᵢ/ρ
// and Table 1's ×10-per-ρ-step runtime shape is visible.
func SigmaIntervals(n int, seed uint64) []bounds.Interval {
	rng := stats.NewRNG(seed)
	out := make([]bounds.Interval, n)
	for i := range out {
		base := rng.Float64() * 100
		width := rng.Float64() * 0.4 // narrow default
		if rng.Float64() < 0.1 {
			width = rng.Float64() * 8 // sensitive minority
		}
		out[i] = bounds.Interval{Lo: base, Hi: base + width}
	}
	return out
}

// Table1 measures the σ²_max DP at the paper's three granularities.
func Table1(p Params) ([]SigmaRow, error) {
	p = p.withDefaults()
	ivs := SigmaIntervals(p.SigmaN, p.Seed+3)
	var rows []SigmaRow
	for _, rho := range []float64{10, 1, 0.1} {
		sw := obs.NewStopwatch()
		res, err := bounds.SigmaMaxDP(ivs, rho)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SigmaRow{
			N:       p.SigmaN,
			Rho:     rho,
			Elapsed: sw.Elapsed(),
			Sigma2:  res.Sigma2,
			Theta:   res.Theta,
			Cells:   res.Cells,
		})
	}
	return rows, nil
}

// CLTRow is one Section 6 sample-size data point: the fraction of a
// workload that must be sampled before Equation 9 is satisfied.
type CLTRow struct {
	N          int
	G1Max      float64
	MinSamples int
	Fraction   float64
}

// CLTRequirement computes the Equation 9 requirement for a highly skewed
// synthetic TPC-D cost-interval population of size n (the paper reports ≈4%
// for 13K queries and <0.6% for 131K).
func CLTRequirement(n int, seed uint64) (CLTRow, error) {
	rng := stats.NewRNG(seed)
	ivs := make([]bounds.Interval, n)
	for i := range ivs {
		// Costs spanning multiple orders of magnitude ("query costs vary
		// by multiple degrees of magnitude").
		base := math.Pow(10, rng.Float64()*3) // 1 … 1000
		ivs[i] = bounds.Interval{Lo: base * 0.9, Hi: base * 1.1}
	}
	res, err := bounds.SkewMax(ivs)
	if err != nil {
		return CLTRow{}, err
	}
	min := stats.ModifiedCochranMinSamples(res.UpperBound)
	return CLTRow{
		N:          n,
		G1Max:      res.UpperBound,
		MinSamples: min,
		Fraction:   float64(min) / float64(n),
	}, nil
}

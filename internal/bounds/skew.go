package bounds

import (
	"fmt"
	"math"

	"physdes/internal/stats"
)

// SkewMaxResult reports an approximate skew maximization.
type SkewMaxResult struct {
	// G1 is the largest Fisher skew found over endpoint assignments.
	G1 float64
	// UpperBound pads G1 by 10%; substitute it into the modified Cochran
	// rule for a conservative sample-size requirement.
	UpperBound float64
}

// SkewMax approximates the maximum Fisher skew G1 over the box of cost
// intervals, following the scheme the paper sketches for σ²_max (Section
// 6.2 states the full description is omitted for space; the complexity of
// exact G1 maximization is open). The third central moment, like the
// second, attains its box maximum at endpoint assignments, so the search
// space is the vertex set. For a fixed pivot mean μ the sum Σ(vᵢ−μ)³ is
// separable, and each term is maximized by vᵢ = Hi: cubing is monotone and
// Hi ≥ Lo, so (Hi−μ)³ ≥ (Lo−μ)³ for every μ. The all-Hi vertex therefore
// maximizes the numerator at every pivot, and it seeds the search: greedy
// single-flip refinement from it, then from deterministic random vertices.
func SkewMax(ivs []Interval) (SkewMaxResult, error) {
	n := len(ivs)
	if n == 0 {
		return SkewMaxResult{}, fmt.Errorf("bounds: no intervals")
	}
	values := make([]float64, n)
	for i, iv := range ivs {
		if !iv.Valid() {
			return SkewMaxResult{}, fmt.Errorf("bounds: invalid interval %d: %+v", i, iv)
		}
		values[i] = iv.Hi
	}
	best := stats.FisherSkew(values)
	if math.IsNaN(best) || math.IsInf(best, -1) {
		// The moments overflow (costs near 1e103): report no skew rather
		// than searching on NaN.
		return SkewMaxResult{}, nil
	}
	// The true G1 optimum also trades the numerator against the
	// denominator; restarting from random vertices escapes local optima.
	if g := localSkewSearch(ivs, values); g > best {
		best = g
	}
	rng := stats.NewRNG(0x5eed)
	starts := 32
	if n > 10_000 {
		starts = 8
	}
	for s := 0; s < starts; s++ {
		for i, iv := range ivs {
			if rng.Float64() < 0.5 {
				values[i] = iv.Lo
			} else {
				values[i] = iv.Hi
			}
		}
		if g := localSkewSearch(ivs, values); g > best {
			best = g
		}
	}
	// The 10% pad is a heuristic margin for optima the local search may
	// miss; nothing certifies it. It is kept small so the Cochran
	// requirement stays useful.
	pad := math.Abs(best) * 0.1
	return SkewMaxResult{G1: best, UpperBound: best + pad}, nil
}

// localSkewSearch hill-climbs single endpoint flips until no flip improves
// the Fisher skew, maintaining raw moment sums so each candidate flip is
// O(1). It returns the improved skew.
func localSkewSearch(ivs []Interval, values []float64) float64 {
	n := len(values)
	fn := float64(n)
	var s1, s2, s3 float64
	for _, v := range values {
		s1 += v
		s2 += v * v
		s3 += v * v * v
	}
	g1 := func(a, b, c float64) float64 {
		mu := a / fn
		m2 := b/fn - mu*mu
		if m2 <= 0 {
			return 0
		}
		m3 := c/fn - 3*mu*b/fn + 2*mu*mu*mu
		return m3 / math.Pow(m2, 1.5)
	}
	best := g1(s1, s2, s3)
	const maxSweeps = 50
	for sweep := 0; sweep < maxSweeps; sweep++ {
		improved := false
		for i, iv := range ivs {
			alt := iv.Lo
			if values[i] == iv.Lo {
				alt = iv.Hi
			}
			if alt == values[i] {
				continue
			}
			old := values[i]
			na := s1 - old + alt
			nb := s2 - old*old + alt*alt
			nc := s3 - old*old*old + alt*alt*alt
			if g := g1(na, nb, nc); g > best+1e-15 {
				best = g
				values[i] = alt
				s1, s2, s3 = na, nb, nc
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return best
}

// CLTMinSamples returns the minimum sample size required by the modified
// Cochran rule (Equation 9) for the conservative skew bound of the given
// intervals: n > 28 + 25·G1_max². The skew bound does not depend on rho;
// rho must still be positive, as for the σ²_max DP it is paired with.
func CLTMinSamples(ivs []Interval, rho float64) (int, error) {
	if rho <= 0 {
		return 0, fmt.Errorf("bounds: rho must be positive, got %v", rho)
	}
	res, err := SkewMax(ivs)
	if err != nil {
		return 0, err
	}
	return stats.ModifiedCochranMinSamples(res.UpperBound), nil
}

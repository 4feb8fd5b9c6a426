// Package bounds implements Section 6 of the paper: deriving upper and
// lower bounds on the costs of queries that have not been sampled, and
// using those intervals to compute conservative upper bounds on the
// variance (σ²_max) and skew (G1_max) of the underlying cost distribution.
// These bounds validate the two assumptions behind the Pr(CS) estimates:
// that the sample variance does not underestimate the true variance, and
// that the sample is large enough for the CLT to apply (the modified
// Cochran rule, Equation 9).
package bounds

import (
	"fmt"
	"math"
	"sort"
)

// Interval bounds one query's cost: Lo ≤ Cost ≤ Hi.
type Interval struct {
	Lo, Hi float64
}

// Valid reports Lo ≤ Hi with both finite and non-negative.
func (iv Interval) Valid() bool {
	return !math.IsNaN(iv.Lo) && !math.IsNaN(iv.Hi) &&
		!math.IsInf(iv.Lo, 0) && !math.IsInf(iv.Hi, 0) &&
		iv.Lo >= 0 && iv.Lo <= iv.Hi
}

// Mid returns the interval midpoint.
func (iv Interval) Mid() float64 { return (iv.Lo + iv.Hi) / 2 }

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// SigmaMaxResult reports an approximate variance maximization.
type SigmaMaxResult struct {
	// Sigma2 is σ̂²_max, the exact maximum of the rounded problem.
	Sigma2 float64
	// Theta is the approximation slack θ: the true σ²_max lies in
	// [Sigma2 − θ, Sigma2 + θ].
	Theta float64
	// UpperBound is Sigma2 + Theta, the conservative value to substitute
	// for the sample variance.
	UpperBound float64
	// Cells is the size of the DP table (reported for the Table 1
	// scalability analysis: runtime is Θ(n · Cells)).
	Cells int
}

// SigmaMaxDP approximates the constrained variance maximization of
// Equation 6 by the paper's dynamic program: round every interval endpoint
// to the closest multiple of ρ, observe that the second central moment
// attains its box-constrained maximum only at endpoint assignments, and
// compute MaxV²[m][j] — the maximum of Σ(v_i^ρ)² subject to
// Σ v_i^ρ = Σ low_i^ρ + j·ρ — over all reachable column sums j. Variables
// are processed in increasing order of their rounded range (the paper's
// traversal-order optimization), which keeps the live table as small as
// possible for as long as possible.
//
// The returned slack θ = (2/n)·Σ(ρ·v_i^ρ + ρ²/4) uses the rounded upper
// endpoints, the conservative choice.
func SigmaMaxDP(ivs []Interval, rho float64) (SigmaMaxResult, error) {
	n := len(ivs)
	if n == 0 {
		return SigmaMaxResult{}, fmt.Errorf("bounds: no intervals")
	}
	if rho <= 0 {
		return SigmaMaxResult{}, fmt.Errorf("bounds: rho must be positive, got %v", rho)
	}
	type item struct {
		lo, hi int64 // endpoints in ρ units
	}
	items := make([]item, n)
	var s0 float64 // Σ lo (ρ units)
	var q0 float64 // Σ lo² (ρ² units)
	var thetaSum float64
	for i, iv := range ivs {
		if !iv.Valid() {
			return SigmaMaxResult{}, fmt.Errorf("bounds: invalid interval %d: %+v", i, iv)
		}
		lo := int64(math.Floor(iv.Lo/rho + 0.5))
		hi := int64(math.Floor(iv.Hi/rho + 0.5))
		if hi < lo {
			hi = lo
		}
		items[i] = item{lo: lo, hi: hi}
		s0 += float64(lo)
		q0 += float64(lo) * float64(lo)
		thetaSum += rho*float64(hi)*rho + rho*rho/4
	}
	theta := 2 / float64(n) * thetaSum

	// Ascending range order (the paper's step-minimizing traversal).
	sort.Slice(items, func(a, b int) bool {
		return items[a].hi-items[a].lo < items[b].hi-items[b].lo
	})

	var total int64
	for _, it := range items {
		total += it.hi - it.lo
	}
	if total > 64<<20 {
		return SigmaMaxResult{}, fmt.Errorf(
			"bounds: DP table of %d cells exceeds the practical limit; use a larger rho", total)
	}

	// dp[j] = max extra Σv² (in ρ² units) over endpoint assignments whose
	// sum offset is j; unreachable = −Inf.
	dp := make([]float64, total+1)
	for j := range dp {
		dp[j] = math.Inf(-1)
	}
	dp[0] = 0
	var reach int64 // largest reachable offset so far
	for _, it := range items {
		r := it.hi - it.lo
		if r == 0 {
			continue
		}
		gain := float64(it.hi)*float64(it.hi) - float64(it.lo)*float64(it.lo)
		hiJ := reach + r
		for j := hiJ; j >= r; j-- {
			if v := dp[j-r] + gain; v > dp[j] {
				dp[j] = v
			}
		}
		reach = hiJ
	}

	// Evaluate Equation 8 over all reachable column sums.
	best := math.Inf(-1)
	fn := float64(n)
	for j := int64(0); j <= reach; j++ {
		if math.IsInf(dp[j], -1) {
			continue
		}
		sum := (s0 + float64(j)) * rho // Σv in original units
		sq := (q0 + dp[j]) * rho * rho // Σv²
		v := (sq - sum*sum/fn) / fn    // population variance
		if v > best {
			best = v
		}
	}
	if best < 0 {
		best = 0
	}
	return SigmaMaxResult{
		Sigma2:     best,
		Theta:      theta,
		UpperBound: best + theta,
		Cells:      int(total + 1),
	}, nil
}

// SigmaMaxExact computes the exact maximum population variance over the
// box by enumerating endpoint assignments (the maximum of a convex
// function over a box is attained at a vertex). It is exponential in n and
// refuses n > 24; it exists to property-test SigmaMaxDP.
func SigmaMaxExact(ivs []Interval) (float64, error) {
	n := len(ivs)
	if n == 0 {
		return 0, fmt.Errorf("bounds: no intervals")
	}
	if n > 24 {
		return 0, fmt.Errorf("bounds: exact maximization limited to 24 intervals, got %d", n)
	}
	for i, iv := range ivs {
		if !iv.Valid() {
			return 0, fmt.Errorf("bounds: invalid interval %d: %+v", i, iv)
		}
	}
	best := 0.0
	fn := float64(n)
	for mask := 0; mask < 1<<n; mask++ {
		var sum, sq float64
		for i, iv := range ivs {
			v := iv.Lo
			if mask&(1<<i) != 0 {
				v = iv.Hi
			}
			sum += v
			sq += v * v
		}
		if v := (sq - sum*sum/fn) / fn; v > best {
			best = v
		}
	}
	return best, nil
}

// SigmaMaxThreshold is the fast O(n log n) vertex search: sort intervals by
// midpoint and evaluate the n+1 threshold assignments (all intervals with
// midpoint above the threshold at Hi, the rest at Lo). It returns a lower
// bound on σ²_max that is exact for non-nested interval families, and is
// used as a cross-check and cheap fallback.
func SigmaMaxThreshold(ivs []Interval) float64 {
	n := len(ivs)
	if n == 0 {
		return 0
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ivs[idx[a]].Mid() < ivs[idx[b]].Mid() })

	// Prefix: everything below the threshold at Lo; suffix at Hi.
	fn := float64(n)
	// Start with all at Hi.
	var sum, sq float64
	for _, iv := range ivs {
		sum += iv.Hi
		sq += iv.Hi * iv.Hi
	}
	best := (sq - sum*sum/fn) / fn
	for _, i := range idx {
		iv := ivs[i]
		sum += iv.Lo - iv.Hi
		sq += iv.Lo*iv.Lo - iv.Hi*iv.Hi
		if v := (sq - sum*sum/fn) / fn; v > best {
			best = v
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

package sampling

import (
	"math"

	"physdes/internal/stats"
)

// indepEst is Independent Sampling (Section 4.1): every configuration
// draws its own sample and — per Section 5.1 — keeps its own
// stratification of the workload, so a comparison's variance is the sum
// of two estimator variances.
type indepEst struct{ *engine }

// drifted z-tests the stratum's prior mean against the fresh one.
//
//physdes:zeroalloc
func (i *indepEst) drifted(s *stratum) bool {
	pn := s.pN[0]
	fVar, _ := stats.SampleVarFromKahanSums(s.sums[0], s.sumsqs[0], s.n)
	pVar, _ := stats.SampleVarFromKahanSums(s.pSum[0], s.pSumsq[0], pn)
	return meansDiffer(s.sums[0].Sum()/float64(s.n), fVar, s.n, s.pSum[0].Sum()/float64(pn), pVar, pn)
}

// pairVars fills v[j] with Var(X_b) + Var(X_j) for the incumbent b.
func (i *indepEst) pairVars(v []float64) {
	vb := i.estVar(i.best)
	for j := 0; j < i.k; j++ {
		if j != i.best && i.alive[j] {
			v[j] = vb + i.estVar(j)
		}
	}
}

// estVar returns Var(X_j) per Equation 5 over configuration j's strata.
func (i *indepEst) estVar(j int) float64 {
	strata := i.parts[j]
	var gSum, gSumsq stats.Kahan
	gN := 0
	for _, s := range strata {
		gSum.AddKahan(s.sums[0])
		gSumsq.AddKahan(s.sumsqs[0])
		gN += s.n
		if s.pN != nil {
			pe, f := priorEff(s.pN[0], s.n)
			gSum.AddKahan(s.pSum[0].Scaled(f))
			gSumsq.AddKahan(s.pSumsq[0].Scaled(f))
			gN += pe
		}
	}
	gVar, _ := stats.SampleVarFromKahanSums(gSum, gSumsq, gN)
	boundS2, haveBound := 0.0, false
	if bound := i.opts.VarianceBound; bound != nil {
		boundS2, haveBound = bound([2]int{j, j}, gN)
	}
	if haveBound && boundS2 > gVar {
		gVar = boundS2
	}
	var v float64
	for _, s := range strata {
		if s.n >= s.size {
			continue
		}
		nEff := s.n
		sum, sumsq := s.sums[0], s.sumsqs[0]
		if s.pN != nil {
			pe, f := priorEff(s.pN[0], s.n)
			nEff += pe
			sum.AddKahan(s.pSum[0].Scaled(f))
			sumsq.AddKahan(s.pSumsq[0].Scaled(f))
		}
		var s2 float64
		if nEff >= 2 {
			s2, _ = stats.SampleVarFromKahanSums(sum, sumsq, nEff)
		} else {
			s2 = gVar
			if nEff == 0 {
				nEff = 1
			}
		}
		if haveBound && boundS2 > s2 {
			s2 = boundS2
		}
		W := float64(s.size)
		v += W * W * s2 / float64(nEff) * (1 - float64(s.n)/W)
	}
	return v
}

// neyman picks the (configuration, stratum) pair whose extra sample most
// reduces Σᵢ Var(Xᵢ) per unit of optimization overhead (Section 5.2).
func (i *indepEst) neyman() (int, int) {
	bestJ, bestH := -1, -1
	var bestDrop float64
	for j := 0; j < i.k; j++ {
		if !i.alive[j] {
			continue
		}
		for h, s := range i.parts[j] {
			if s.exhausted() {
				continue
			}
			if s.n < 2 {
				return j, h
			}
			s2, ok := stats.SampleVarFromKahanSums(s.sums[0], s.sumsqs[0], s.n)
			if !ok {
				continue
			}
			W := float64(s.size)
			n := float64(s.n)
			cur := W * W * s2 / n * (1 - n/W)
			nxt := W * W * s2 / (n + 1) * (1 - (n+1)/W)
			if drop := (cur - nxt) / s.avgOver; bestJ < 0 || drop > bestDrop {
				bestJ, bestH, bestDrop = j, h, drop
			}
		}
	}
	return bestJ, bestH
}

// splitTarget runs Algorithm 2 for the configuration of the last sample,
// as the paper prescribes, against its own stratification. Its target is
// half the pair target against the incumbent (the pair variance is the
// sum of two estimator variances in Equation 2), or against the worst
// rival when it is the incumbent.
func (i *indepEst) splitTarget() (int, float64, bool) {
	ci := i.last
	if !i.alive[ci] {
		return 0, 0, false
	}
	perPair := 1 - (1-i.opts.Alpha)/float64(max(i.aliveCount-1, 1))
	other := i.best
	if ci == i.best {
		if other = i.worstRival(); other < 0 {
			return 0, 0, false
		}
	}
	gap := math.Abs(i.estimate(other) - i.estimate(i.best))
	targetVar := stats.TargetVarianceForPrCS(gap, i.opts.Delta, perPair) / 2
	return ci, targetVar, !math.IsInf(targetVar, 1)
}

// splitStats describes the stratum by configuration p's costs, weighting
// templates by their full population.
func (i *indepEst) splitStats(buf []tmplStat, p int, s *stratum) (float64, []tmplStat, bool) {
	s2, _ := stats.SampleVarFromKahanSums(s.sums[0], s.sumsqs[0], s.n)
	start := len(buf)
	for _, t := range s.templates {
		n := i.tCount[t][p]
		if n < minTemplateObs {
			return s2, buf[:start], false
		}
		v, _ := stats.SampleVarFromKahanSums(i.tSum[t][p], i.tSumsq[t][p], n)
		buf = append(buf, tmplStat{t: t, w: i.pop.templateSize(t), m: i.tSum[t][p].Sum() / float64(n), v: v})
	}
	return s2, buf, true
}

// children removes the parent (swapping the last stratum into its slot)
// and appends children with fresh shuffled orders. Independent Sampling
// keeps no per-row history, so each child restarts its accumulators and
// receives a fresh pilot — a conservative simplification that charges
// the split's cost explicitly, and gives a query a transient fault
// degraded another chance.
func (i *indepEst) children(p, h int, left, right []int, _ map[int]bool) (*stratum, *stratum) {
	strata := i.parts[p]
	strata[h] = strata[len(strata)-1]
	i.parts[p] = strata[:len(strata)-1]
	lc := i.addStratum(p, left)
	return lc, i.addStratum(p, right)
}

// bestChanged is a no-op: Independent Sampling keeps no statistics
// relative to the incumbent.
func (i *indepEst) bestChanged() {}

package sampling

import (
	"math"

	"physdes/internal/stats"
)

// deltaEst is Delta Sampling (Section 4.2): one stratification shared by
// every configuration, whose sampled rows cost every alive configuration,
// so each comparison estimates the cost difference to the incumbent
// directly — correlated costs make that variance far smaller than the sum
// of two independent ones.
type deltaEst struct {
	*engine
	worst int // the split's constraining rival, set by splitTarget
}

// diffMoments returns the moment sums of c_b − c_j from per-configuration
// sums, squares and cross sums Σ c_b·c_j.
//
//physdes:zeroalloc
func diffMoments(sums, sumsqs, cross []stats.Kahan, b, j int) (sum, sumsq stats.Kahan) {
	sum = sums[b]
	sum.SubKahan(sums[j])
	sumsq = sumsqs[b]
	sumsq.AddKahan(sumsqs[j])
	sumsq.SubKahan(cross[j].Scaled(2))
	return sum, sumsq
}

// addDiff folds the c_b − c_j moments of moment columns, scaled by f,
// into sum and sumsq.
func addDiff(sum, sumsq *stats.Kahan, sums, sumsqs, cross []stats.Kahan, b, j int, f float64) {
	sum.AddKahan(sums[b].Scaled(f))
	sum.SubKahan(sums[j].Scaled(f))
	sumsq.AddKahan(sumsqs[b].Scaled(f))
	sumsq.AddKahan(sumsqs[j].Scaled(f))
	sumsq.SubKahan(cross[j].Scaled(2 * f))
}

// priorUsable reports whether stratum s's prior moments may pool into the
// difference variance of pair (b, j): the prior cross sums are relative
// to the snapshot's winner, so they only compose while b is that winner,
// and both columns must cover the same prior sample (a configuration
// eliminated mid-way through the prior run has a shorter column).
//
//physdes:zeroalloc
func (d *deltaEst) priorUsable(s *stratum, b, j int) bool {
	return s.pN != nil && b == d.priorBest && s.pN[b] == s.pN[j] && s.pN[b] > 0
}

// drifted z-tests the stratum's prior difference means (best vs j — the
// quantity the selection actually rides on) against the fresh ones. The
// test runs on differences, not per-configuration costs, because
// correlated costs make the difference variance orders of magnitude
// smaller than the within-stratum cost variance — drift invisible at the
// cost scale is glaring at the difference scale.
//
//physdes:zeroalloc
func (d *deltaEst) drifted(s *stratum) bool {
	b := d.best
	for j := 0; j < d.k; j++ {
		if j == b || !d.alive[j] {
			continue
		}
		// Prior difference means need both columns over the same prior
		// sample.
		pn := s.pN[b]
		if pn != s.pN[j] || pn < 2 || s.n < 2 {
			continue
		}
		fSum, fSumsq := diffMoments(s.sums, s.sumsqs, s.cross, b, j)
		fVar, _ := stats.SampleVarFromKahanSums(fSum, fSumsq, s.n)
		pSum, pSumsq := diffMoments(s.pSum, s.pSumsq, s.pCross, b, j)
		pVar := fVar
		if b == d.priorBest {
			pVar, _ = stats.SampleVarFromKahanSums(pSum, pSumsq, pn)
		}
		// When the incumbent moved off the snapshot's winner the prior
		// cross sums don't compose for this pair; the fresh difference
		// variance stands in — correlated costs keep the two close.
		if meansDiffer(fSum.Sum()/float64(s.n), fVar, s.n, pSum.Sum()/float64(pn), pVar, pn) {
			return true
		}
	}
	return false
}

// pairVars fills v[j] with Var(X_{b,j}) per Equations 4 and 5: the
// stratified variance of the difference estimator between the incumbent
// b and j.
func (d *deltaEst) pairVars(v []float64) {
	for j := 0; j < d.k; j++ {
		if j != d.best && d.alive[j] {
			v[j] = d.pairDiffVar(j)
		}
	}
}

func (d *deltaEst) pairDiffVar(j int) float64 {
	b := d.best
	strata := d.parts[0]
	// Global fallback s² for strata with n < 2.
	var gSum, gSumsq stats.Kahan
	gN := 0
	for _, s := range strata {
		addDiff(&gSum, &gSumsq, s.sums, s.sumsqs, s.cross, b, j, 1)
		gN += s.n
		if d.priorUsable(s, b, j) {
			pe, f := priorEff(s.pN[b], s.n)
			addDiff(&gSum, &gSumsq, s.pSum, s.pSumsq, s.pCross, b, j, f)
			gN += pe
		}
	}
	gVar, _ := stats.SampleVarFromKahanSums(gSum, gSumsq, gN)
	// A conservative σ²_max bound (Section 6.2) replaces any smaller
	// sample-variance estimate, per stratum and in the fallback.
	boundS2, haveBound := 0.0, false
	if bound := d.opts.VarianceBound; bound != nil {
		boundS2, haveBound = bound([2]int{b, j}, gN)
	}
	if haveBound && boundS2 > gVar {
		gVar = boundS2
	}

	var v float64
	for _, s := range strata {
		if s.n >= s.size {
			continue // census: no variance left
		}
		nEff := s.n
		sum, sumsq := diffMoments(s.sums, s.sumsqs, s.cross, b, j)
		if d.priorUsable(s, b, j) {
			pe, f := priorEff(s.pN[b], s.n)
			nEff += pe
			addDiff(&sum, &sumsq, s.pSum, s.pSumsq, s.pCross, b, j, f)
		}
		var s2 float64
		if nEff >= 2 {
			s2, _ = stats.SampleVarFromKahanSums(sum, sumsq, nEff)
		} else {
			s2 = gVar
			if nEff == 0 {
				nEff = 1 // unsampled stratum: charge one phantom sample
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

// neyman picks the stratum whose next row shrinks the summed pairwise
// difference variance the most per unit of overhead (Section 5.2).
func (d *deltaEst) neyman() (int, int) {
	bestH := -1
	var bestDrop float64
	for h, s := range d.parts[0] {
		if s.exhausted() {
			continue
		}
		if s.n < 2 {
			return 0, h // strata without variance estimates first
		}
		var drop float64
		W := float64(s.size)
		for j := 0; j < d.k; j++ {
			if j == d.best || !d.alive[j] {
				continue
			}
			sum, sumsq := diffMoments(s.sums, s.sumsqs, s.cross, d.best, j)
			s2, ok := stats.SampleVarFromKahanSums(sum, sumsq, s.n)
			if !ok {
				continue
			}
			n := float64(s.n)
			cur := W * W * s2 / n * (1 - n/W)
			nxt := W * W * s2 / (n + 1) * (1 - (n+1)/W)
			drop += cur - nxt
		}
		// With non-constant optimization times, maximize the variance
		// reduction relative to the expected overhead.
		drop /= s.avgOver
		if bestH < 0 || drop > bestDrop {
			bestH, bestDrop = h, drop
		}
	}
	if bestH < 0 {
		return -1, -1
	}
	return 0, bestH
}

// splitTarget constrains the split by the alive configuration with the
// lowest pairwise Pr(CS) versus the incumbent (a single ranking, Section
// 5.1's tractability simplification for Delta Sampling), at the full
// pairwise variance the Bonferroni bound needs to meet α.
func (d *deltaEst) splitTarget() (int, float64, bool) {
	d.worst = d.worstRival()
	if d.worst < 0 {
		return 0, 0, false
	}
	perPair := 1 - (1-d.opts.Alpha)/float64(max(d.aliveCount-1, 1))
	gap := d.estimate(d.worst) - d.estimate(d.best)
	targetVar := stats.TargetVarianceForPrCS(gap, d.opts.Delta, perPair)
	return 0, targetVar, !math.IsInf(targetVar, 1)
}

// splitStats describes the stratum by the difference between the
// incumbent and the constraining rival, weighting templates by their live
// (skip-adjusted) population.
func (d *deltaEst) splitStats(buf []tmplStat, _ int, s *stratum) (float64, []tmplStat, bool) {
	sum, sumsq := diffMoments(s.sums, s.sumsqs, s.cross, d.best, d.worst)
	s2, _ := stats.SampleVarFromKahanSums(sum, sumsq, s.n)
	start := len(buf)
	for _, t := range s.templates {
		n := d.tCount[t][d.best]
		if n < minTemplateObs {
			return s2, buf[:start], false
		}
		sum, sumsq := diffMoments(d.tSum[t], d.tSumsq[t], d.tCross[t], d.best, d.worst)
		v, _ := stats.SampleVarFromKahanSums(sum, sumsq, n)
		buf = append(buf, tmplStat{t: t, w: d.liveSize(t), m: sum.Sum() / float64(n), v: v})
	}
	return s2, buf, true
}

// children partitions the parent's unsampled order between the children,
// preserving its random relative order, and replays the sampled rows into
// them; the left child takes the parent's slot and the right one is
// appended.
func (d *deltaEst) children(_, h int, left, right []int, inLeft map[int]bool) (*stratum, *stratum) {
	parent := d.parts[0][h]
	var lo, ro []int
	for _, q := range parent.order[parent.next:] {
		if inLeft[d.tmplOf(q)] {
			lo = append(lo, q)
		} else {
			ro = append(ro, q)
		}
	}
	lc := d.newStratum(left, lo, d.liveSize(left...))
	rc := d.newStratum(right, ro, d.liveSize(right...))
	for _, ri := range parent.rowIdx {
		r := d.rows[ri]
		child := rc
		if inLeft[r.tmpl] {
			child = lc
		}
		child.rowIdx = append(child.rowIdx, ri)
		child.n++
		cb := r.costs[d.best]
		for j, c := range r.costs {
			if math.IsNaN(c) {
				continue
			}
			child.sums[j].Add(c)
			child.sumsqs[j].AddProduct(c, c)
			if !math.IsNaN(cb) {
				child.cross[j].AddProduct(cb, c)
			}
		}
	}
	d.parts[0][h] = lc
	d.parts[0] = append(d.parts[0], rc)
	return lc, rc
}

// liveSize is the live population of the templates: their full size
// minus the queries degraded out of the run.
func (d *deltaEst) liveSize(tmpls ...int) int {
	size := 0
	for _, t := range tmpls {
		size += d.pop.templateSize(t) - d.tmplDropped[t]
	}
	return size
}

// bestChanged rebuilds the Σ c_best·c_j accumulators of every stratum and
// template from the row history: they are relative to the incumbent.
func (d *deltaEst) bestChanged() {
	b := d.best
	for _, s := range d.parts[0] {
		clear(s.cross)
		for _, ri := range s.rowIdx {
			addCross(s.cross, d.rows[ri].costs, b)
		}
	}
	for _, tc := range d.tCross {
		clear(tc)
	}
	for _, r := range d.rows {
		addCross(d.tCross[r.tmpl], r.costs, b)
	}
}

// addCross folds one row's c_b·c_j products into cross.
func addCross(cross []stats.Kahan, costs []float64, b int) {
	cb := costs[b]
	if math.IsNaN(cb) {
		return
	}
	for j, c := range costs {
		if !math.IsNaN(c) {
			cross[j].AddProduct(cb, c)
		}
	}
}

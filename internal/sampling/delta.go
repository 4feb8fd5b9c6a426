package sampling

import (
	"errors"
	"math"

	"physdes/internal/obs"
	"physdes/internal/stats"
)

// dStratum is one stratum of the Delta sampler: all configurations share
// the stratum's sample (the defining property of Delta Sampling).
type dStratum struct {
	templates []int
	size      int
	order     []int // permuted unsampled query indices
	next      int
	n         int
	sums      []stats.Kahan // per config Σ cost
	sumsqs    []stats.Kahan // per config Σ cost²
	cross     []stats.Kahan // per config Σ cost_best·cost_j (vs current best)
	rowIdx    []int         // indices into the sampler's row history
	avgOver   float64       // mean optimization overhead of member queries
	pilotN    int           // pilot target (NMin cold, WarmPilot for reused strata)

	// Prior moments from a warm snapshot, aggregated over member
	// templates (nil on cold runs and fresh strata). They pool into the
	// estimator means always and into difference variances while the
	// incumbent matches the snapshot's winner; fresh samples alone drive
	// exhaustion, census and the finite-population correction.
	pN     []int         // per config prior sample count
	pSum   []stats.Kahan // per config prior Σ cost
	pSumsq []stats.Kahan // per config prior Σ cost²
	pCross []stats.Kahan // per config prior Σ cost_best·cost_j (vs prior best)
}

func (s *dStratum) exhausted() bool { return s.next >= len(s.order) }

// dRow is one sampled query's cost vector (NaN for configurations already
// eliminated at sampling time).
type dRow struct {
	tmpl  int
	costs []float64
}

// deltaSampler runs Algorithm 1 with Delta Sampling.
type deltaSampler struct {
	o    Oracle
	opts Options
	pop  *population

	k, n       int
	alive      []bool
	aliveCount int
	elimPen    float64 // Σ (1 − Pr(CS)) at elimination time

	strata []*dStratum

	// Skip-and-reweight bookkeeping: queries the oracle degraded out of
	// the run. tmplDropped renormalizes template weights for Algorithm 2.
	degraded    int
	tmplDropped []int

	// Per-template estimator statistics (per configuration), for split
	// decisions.
	tCount []int
	tSum   [][]stats.Kahan
	tSumsq [][]stats.Kahan
	tCross [][]stats.Kahan

	rows    []dRow
	best    int
	sampled int
	splits  int

	// Warm-start state: the snapshot's winner remapped to a current
	// config index (-1 cold) and per-template prior moments in current
	// config order (nil rows for fresh templates).
	priorBest  int
	pTmplN     [][]int
	pTmplSum   [][]stats.Kahan
	pTmplSumsq [][]stats.Kahan
	pTmplCross [][]stats.Kahan
	winfo      WarmInfo

	met     samplerMetrics
	trace   []float64
	split   splitScratch // reusable split-search buffers
	pairBuf []float64    // reusable pairwise Pr(CS) buffer

	// Reusable evalRow batch buffers (capacity k).
	rowPairs []Pair
	rowOut   []float64
	rowErrs  []error
}

func newDeltaSampler(o Oracle, opts Options) *deltaSampler {
	k, n := o.K(), o.N()
	d := &deltaSampler{
		o: o, opts: opts,
		pop:         newPopulation(opts.TemplateIndex, opts.TemplateCount, n),
		k:           k,
		n:           n,
		alive:       make([]bool, k),
		aliveCount:  k,
		tCount:      make([]int, maxInt(opts.TemplateCount, 1)),
		tSum:        make([][]stats.Kahan, maxInt(opts.TemplateCount, 1)),
		tSumsq:      make([][]stats.Kahan, maxInt(opts.TemplateCount, 1)),
		tCross:      make([][]stats.Kahan, maxInt(opts.TemplateCount, 1)),
		tmplDropped: make([]int, maxInt(opts.TemplateCount, 1)),
		met:         newSamplerMetrics(opts.Metrics),
		rowPairs:    make([]Pair, 0, k),
		rowOut:      make([]float64, k),
		rowErrs:     make([]error, k),
	}
	for i := range d.alive {
		d.alive[i] = true
	}
	for t := range d.tSum {
		d.tSum[t] = make([]stats.Kahan, k)
		d.tSumsq[t] = make([]stats.Kahan, k)
		d.tCross[t] = make([]stats.Kahan, k)
	}
	d.priorBest = -1
	if wr := planWarm(opts.WarmState, &opts, Delta, k, d.pop); wr != nil {
		d.initWarm(wr)
	} else {
		for _, tmpls := range d.pop.initialTemplates(opts.Strat) {
			d.addStratum(tmpls)
		}
	}
	return d
}

// initWarm seeds the sampler from a decoded snapshot: prior per-template
// moments remapped to current config order, the snapshot's strata (known
// templates only) with reduced pilots and reseeded prior moments, and
// fresh strata for the remaining templates.
func (d *deltaSampler) initWarm(wr *warmResume) {
	d.priorBest = wr.best
	if d.priorBest >= 0 {
		d.best = d.priorBest
	}
	tc := len(d.tSum)
	d.pTmplN = make([][]int, tc)
	d.pTmplSum = make([][]stats.Kahan, tc)
	d.pTmplSumsq = make([][]stats.Kahan, tc)
	d.pTmplCross = make([][]stats.Kahan, tc)
	for t := 0; t < tc && t < len(wr.stateIdx); t++ {
		si := wr.stateIdx[t]
		if si < 0 {
			continue
		}
		ts := &wr.st.Templates[si]
		d.pTmplN[t] = make([]int, d.k)
		d.pTmplSum[t] = make([]stats.Kahan, d.k)
		d.pTmplSumsq[t] = make([]stats.Kahan, d.k)
		d.pTmplCross[t] = make([]stats.Kahan, d.k)
		for j := 0; j < d.k; j++ {
			pj := wr.cfgMap[j]
			d.pTmplN[t][j] = ts.Counts[pj]
			d.pTmplSum[t][j] = ts.Sum[pj]
			d.pTmplSumsq[t][j] = ts.Sumsq[pj]
			d.pTmplCross[t][j] = ts.Cross[pj]
		}
	}
	groups, reused := wr.groupsFor(0, d.pop, d.opts.Strat)
	warm := make([]*dStratum, 0, reused)
	sizes := make([]int, 0, reused)
	for gi, tmpls := range groups {
		s := d.addStratum(tmpls)
		if gi < reused {
			warm = append(warm, s)
			sizes = append(sizes, s.size)
		}
	}
	pilots := warmPilotAlloc(sizes, d.opts.NMin, d.opts.WarmPilot)
	for i, s := range warm {
		s.pilotN = pilots[i]
		s.pN = make([]int, d.k)
		s.pSum = make([]stats.Kahan, d.k)
		s.pSumsq = make([]stats.Kahan, d.k)
		s.pCross = make([]stats.Kahan, d.k)
		d.reseedStratumPrior(s)
		if saved := minInt(d.opts.NMin, s.size) - minInt(s.pilotN, s.size); saved > 0 {
			d.winfo.PilotSaved += saved
		}
	}
	d.winfo.Started = true
	d.winfo.StrataReused = reused
	d.winfo.TemplatesKnown = wr.known
	d.winfo.TemplatesFresh = wr.fresh
	d.met.warmStarts.Inc()
	d.met.warmStrata.Add(int64(reused))
	d.met.warmPilotSaved.Add(int64(d.winfo.PilotSaved))
	if tr := d.opts.Tracer; tr.Enabled() {
		tr.Emit("warm",
			obs.KV{Key: "strata_reused", Value: reused},
			obs.KV{Key: "templates_known", Value: wr.known},
			obs.KV{Key: "templates_fresh", Value: wr.fresh},
			obs.KV{Key: "pilot_saved", Value: d.winfo.PilotSaved})
	}
}

// reseedStratumPrior aggregates the per-template prior moments of the
// stratum's members into its preallocated prior accumulators — the
// moment-reseeding hot path of a warm resume (and of every later split
// of a warm stratum).
//
//physdes:zeroalloc
func (d *deltaSampler) reseedStratumPrior(s *dStratum) {
	for j := 0; j < d.k; j++ {
		s.pN[j] = 0
		s.pSum[j] = stats.Kahan{}
		s.pSumsq[j] = stats.Kahan{}
		s.pCross[j] = stats.Kahan{}
	}
	for _, t := range s.templates {
		pn := d.pTmplN[t]
		if pn == nil {
			continue
		}
		for j := 0; j < d.k; j++ {
			s.pN[j] += pn[j]
			s.pSum[j].AddKahan(d.pTmplSum[t][j])
			s.pSumsq[j].AddKahan(d.pTmplSumsq[t][j])
			s.pCross[j].AddKahan(d.pTmplCross[t][j])
		}
	}
}

// priorUsable reports whether stratum s's prior moments may pool into the
// difference variance of pair (b, j): the prior cross sums are relative
// to the snapshot's winner, so they only compose while b is that winner,
// and both columns must cover the same prior sample (a configuration
// eliminated mid-way through the prior run has a shorter column).
//
//physdes:zeroalloc
func (d *deltaSampler) priorUsable(s *dStratum, b, j int) bool {
	return s.pN != nil && b == d.priorBest && s.pN[b] == s.pN[j] && s.pN[b] > 0
}

// checkPriorDrift is the warm path's online safety net: every round, each
// stratum with enough fresh samples z-tests its prior difference means
// (best vs j — the quantity the selection actually rides on) against the
// fresh ones and sheds the entire stratum prior on disagreement. The test
// runs on differences, not per-configuration costs, because correlated
// costs make the difference variance orders of magnitude smaller than the
// within-stratum cost variance — drift invisible at the cost scale is
// glaring at the difference scale. A snapshot that described a different
// cost distribution (drift the parameter signatures missed) would
// otherwise pull the pooled estimates — confidently — toward the previous
// run's winner.
//
//physdes:zeroalloc
func (d *deltaSampler) checkPriorDrift() {
	b := d.best
	for _, s := range d.strata {
		if s.pN == nil || s.n < priorCheckMinFresh {
			continue
		}
		drifted := false
		for j := 0; j < d.k && !drifted; j++ {
			if j == b || !d.alive[j] {
				continue
			}
			// Prior difference means need both columns over the same prior
			// sample (a configuration eliminated mid-way through the prior
			// run has a shorter column).
			pn := s.pN[b]
			if pn != s.pN[j] || pn < 2 || s.n < 2 {
				continue
			}
			fSum := s.sums[b]
			fSum.SubKahan(s.sums[j])
			fSumsq := s.sumsqs[b]
			fSumsq.AddKahan(s.sumsqs[j])
			fSumsq.SubKahan(s.cross[j].Scaled(2))
			fVar, _ := stats.SampleVarFromKahanSums(fSum, fSumsq, s.n)

			pSum := s.pSum[b]
			pSum.SubKahan(s.pSum[j])
			pVar := fVar
			if b == d.priorBest {
				pSumsq := s.pSumsq[b]
				pSumsq.AddKahan(s.pSumsq[j])
				pSumsq.SubKahan(s.pCross[j].Scaled(2))
				pVar, _ = stats.SampleVarFromKahanSums(pSum, pSumsq, pn)
			}
			// When the incumbent moved off the snapshot's winner the prior
			// cross sums don't compose for this pair; the fresh difference
			// variance stands in — correlated costs keep the two close.
			drifted = meansDiffer(fSum.Sum()/float64(s.n), fVar, s.n,
				pSum.Sum()/float64(pn), pVar, pn)
		}
		if !drifted {
			continue
		}
		s.pN = nil
		s.pSum = nil
		s.pSumsq = nil
		s.pCross = nil
		d.winfo.PriorDropped++
		d.met.warmPriorDrop.Inc() //physdes:allocok atomic counter bump on the rare drop path, no heap allocation
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (d *deltaSampler) addStratum(templates []int) *dStratum {
	order := d.pop.shuffledMembers(templates, d.opts.RNG)
	s := &dStratum{
		templates: templates,
		size:      len(order),
		order:     order,
		sums:      make([]stats.Kahan, d.k),
		sumsqs:    make([]stats.Kahan, d.k),
		cross:     make([]stats.Kahan, d.k),
		avgOver:   d.avgOverhead(order),
		pilotN:    d.opts.NMin,
	}
	d.strata = append(d.strata, s)
	return s
}

// avgOverhead is the mean per-call optimization overhead of the queries
// (1 when no CallCost model is configured).
func (d *deltaSampler) avgOverhead(queries []int) float64 {
	if d.opts.CallCost == nil || len(queries) == 0 {
		return 1
	}
	var sum float64
	for _, q := range queries {
		sum += d.opts.CallCost(q)
	}
	avg := sum / float64(len(queries))
	if avg <= 0 {
		return 1
	}
	return avg
}

// budgetLeft reports whether another sampled query fits the call budget.
func (d *deltaSampler) budgetLeft() bool {
	if d.opts.MaxCalls <= 0 {
		return true
	}
	return d.o.Calls()+int64(d.aliveCount) <= d.opts.MaxCalls
}

// sampleFrom draws the next query of stratum h and folds its costs in.
// The bool reports progress (a query was consumed — sampled or degraded);
// a non-nil error aborts the run. An oracle asking to skip the query
// (ErrSkipQuery) degrades instead: the query leaves the stratum and the
// stratum's Neyman weight renormalizes to the shrunken population.
func (d *deltaSampler) sampleFrom(h int) (bool, error) {
	s := d.strata[h]
	if s.exhausted() || !d.budgetLeft() {
		return false, nil
	}
	q := s.order[s.next]
	s.next++
	costs, err := d.evalRow(q)
	if err != nil {
		if errors.Is(err, ErrSkipQuery) {
			d.dropQuery(s, q)
			return true, nil
		}
		return false, err
	}
	d.fold(h, q, costs)
	return true, nil
}

// dropQuery removes a degraded query from its stratum: the population
// size (the stratum weight in every estimator) and the query's template
// weight (Algorithm 2's split statistics) both shrink by one.
func (d *deltaSampler) dropQuery(s *dStratum, q int) {
	s.size--
	if d.opts.TemplateIndex != nil {
		d.tmplDropped[d.opts.TemplateIndex[q]]++
	}
	d.degraded++
}

// tmplSize is the template's live population: its full size minus the
// queries degraded out of the run.
func (d *deltaSampler) tmplSize(t int) int {
	return d.pop.templateSize(t) - d.tmplDropped[t]
}

// evalRow costs query q under every alive configuration, NaN-marking the
// eliminated ones. The row is one Eval batch at every parallelism level,
// so neither its values nor its call accounting depend on the setting. A
// fallible oracle's errors surface here (see rowErr): a skip request fails
// the whole row — Delta Sampling shares the row across configurations, so
// a partial row would corrupt the difference estimator's cross terms.
func (d *deltaSampler) evalRow(q int) ([]float64, error) {
	costs := make([]float64, d.k)
	pairs := d.rowPairs[:0]
	for j := 0; j < d.k; j++ {
		if d.alive[j] {
			pairs = append(pairs, Pair{Q: q, J: j})
		} else {
			costs[j] = math.NaN()
		}
	}
	out, errs := d.rowOut[:len(pairs)], d.rowErrs[:len(pairs)]
	Eval(d.o, pairs, out, errs, d.opts.Parallelism)
	if err := rowErr(errs); err != nil {
		return nil, err
	}
	for i, p := range pairs {
		costs[p.J] = out[i]
	}
	return costs, nil
}

// fold records one sampled row of stratum h into the accumulators. The
// fold is the only place sampling state mutates, and it always runs
// serially in schedule order — this is what keeps parallel and serial runs
// bit-identical.
func (d *deltaSampler) fold(h, q int, costs []float64) {
	s := d.strata[h]
	s.n++
	d.sampled++
	d.met.samples.Inc()

	tmpl := 0
	if d.opts.TemplateIndex != nil {
		tmpl = d.opts.TemplateIndex[q]
	}
	d.rows = append(d.rows, dRow{tmpl: tmpl, costs: costs})
	s.rowIdx = append(s.rowIdx, len(d.rows)-1)

	cb := costs[d.best]
	for j := 0; j < d.k; j++ {
		if !d.alive[j] {
			continue
		}
		c := costs[j]
		s.sums[j].Add(c)
		s.sumsqs[j].AddProduct(c, c)
		d.tSum[tmpl][j].Add(c)
		d.tSumsq[tmpl][j].AddProduct(c, c)
		if !math.IsNaN(cb) {
			s.cross[j].AddProduct(cb, c)
			d.tCross[tmpl][j].AddProduct(cb, c)
		}
	}
	d.tCount[tmpl]++
}

// estimate returns X_j = Σ_h |WL_h|·mean_h(j) for an alive configuration.
// Strata without samples fall back to the configuration's global sample
// mean — unbiased strata-wise coverage is exactly what fine stratification
// at small sample sizes lacks (Figure 2).
func (d *deltaSampler) estimate(j int) float64 {
	var globalSum stats.Kahan
	globalN := 0
	for _, s := range d.strata {
		globalSum.AddKahan(s.sums[j])
		globalN += s.n
		if s.pN != nil {
			pe, f := priorEff(s.pN[j], s.n)
			globalSum.AddKahan(s.pSum[j].Scaled(f))
			globalN += pe
		}
	}
	globalMean := 0.0
	if globalN > 0 {
		globalMean = globalSum.Sum() / float64(globalN)
	}
	var x float64
	for _, s := range d.strata {
		n := s.n
		sum := s.sums[j]
		if s.pN != nil {
			pe, f := priorEff(s.pN[j], s.n)
			n += pe
			sum.AddKahan(s.pSum[j].Scaled(f))
		}
		if n > 0 {
			x += float64(s.size) * (sum.Sum() / float64(n))
		} else {
			x += float64(s.size) * globalMean
		}
	}
	return x
}

// pairDiffVar returns Var(X_{b,j}) per Equations 4 and 5: the stratified
// variance of the difference estimator between the current best b and j.
func (d *deltaSampler) pairDiffVar(j int) float64 {
	b := d.best
	// Global fallback s² for strata with n < 2.
	var gSum, gSumsq stats.Kahan
	gN := 0
	for _, s := range d.strata {
		gSum.AddKahan(s.sums[b])
		gSum.SubKahan(s.sums[j])
		gSumsq.AddKahan(s.sumsqs[b])
		gSumsq.AddKahan(s.sumsqs[j])
		gSumsq.SubKahan(s.cross[j].Scaled(2))
		gN += s.n
		if d.priorUsable(s, b, j) {
			pe, f := priorEff(s.pN[b], s.n)
			gSum.AddKahan(s.pSum[b].Scaled(f))
			gSum.SubKahan(s.pSum[j].Scaled(f))
			gSumsq.AddKahan(s.pSumsq[b].Scaled(f))
			gSumsq.AddKahan(s.pSumsq[j].Scaled(f))
			gSumsq.SubKahan(s.pCross[j].Scaled(2 * f))
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
	for _, s := range d.strata {
		if s.n >= s.size {
			continue // census: no variance left
		}
		nEff := s.n
		sum := s.sums[b]
		sum.SubKahan(s.sums[j])
		sumsq := s.sumsqs[b]
		sumsq.AddKahan(s.sumsqs[j])
		sumsq.SubKahan(s.cross[j].Scaled(2))
		if d.priorUsable(s, b, j) {
			pe, f := priorEff(s.pN[b], s.n)
			nEff += pe
			sum.AddKahan(s.pSum[b].Scaled(f))
			sum.SubKahan(s.pSum[j].Scaled(f))
			sumsq.AddKahan(s.pSumsq[b].Scaled(f))
			sumsq.AddKahan(s.pSumsq[j].Scaled(f))
			sumsq.SubKahan(s.pCross[j].Scaled(2 * f))
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

// prCS computes the multi-way probability of correct selection via the
// Bonferroni bound (Equation 3), folding in the frozen penalty of
// eliminated configurations.
func (d *deltaSampler) prCS() (float64, []float64) {
	xb := d.estimate(d.best)
	d.pairBuf = grow(d.pairBuf, d.k)
	pair := d.pairBuf
	for i := range pair {
		pair[i] = 0
	}
	p := 1 - d.elimPen
	for j := 0; j < d.k; j++ {
		if j == d.best || !d.alive[j] {
			continue
		}
		gap := d.estimate(j) - xb
		se := math.Sqrt(math.Max(d.pairDiffVar(j), 0))
		pij := stats.PairwisePrCS(gap, d.opts.Delta, se)
		pair[j] = pij
		p -= 1 - pij
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p, pair
}

// chooseBest re-selects the configuration with the smallest estimate and
// refreshes cross sums when the incumbent changes.
func (d *deltaSampler) chooseBest() {
	best := -1
	var bx float64
	for j := 0; j < d.k; j++ {
		if !d.alive[j] {
			continue
		}
		x := d.estimate(j)
		if best < 0 || x < bx {
			best, bx = j, x
		}
	}
	if best == d.best || best < 0 {
		return
	}
	d.best = best
	d.recomputeCross()
}

// recomputeCross rebuilds Σ c_best·c_j accumulators from the row history
// after a best-configuration change or a stratum split.
func (d *deltaSampler) recomputeCross() {
	b := d.best
	for _, s := range d.strata {
		for j := range s.cross {
			s.cross[j] = stats.Kahan{}
		}
		for _, ri := range s.rowIdx {
			row := d.rows[ri]
			cb := row.costs[b]
			if math.IsNaN(cb) {
				continue
			}
			for j := 0; j < d.k; j++ {
				c := row.costs[j]
				if !math.IsNaN(c) {
					s.cross[j].AddProduct(cb, c)
				}
			}
		}
	}
	for t := range d.tCross {
		for j := range d.tCross[t] {
			d.tCross[t][j] = stats.Kahan{}
		}
	}
	for _, row := range d.rows {
		cb := row.costs[b]
		if math.IsNaN(cb) {
			continue
		}
		for j := 0; j < d.k; j++ {
			c := row.costs[j]
			if !math.IsNaN(c) {
				d.tCross[row.tmpl][j].AddProduct(cb, c)
			}
		}
	}
}

// eliminate drops configurations whose pairwise Pr(CS) exceeds the
// threshold (Section 5's large-k optimization). Elimination is
// irreversible, so it is deferred until the estimates rest on at least
// twice the pilot sample — a pilot-only fluke in a heavy-tailed cost
// distribution must not evict the true best configuration.
func (d *deltaSampler) eliminate(pair []float64) {
	th := d.opts.EliminationThreshold
	if th <= 0 {
		return
	}
	if d.sampled < 2*d.opts.NMin {
		return
	}
	for j := 0; j < d.k; j++ {
		if j == d.best || !d.alive[j] {
			continue
		}
		if pair[j] > th {
			d.alive[j] = false
			d.aliveCount--
			d.elimPen += 1 - pair[j]
			d.met.eliminations.Inc()
			if tr := d.opts.Tracer; tr.Enabled() {
				tr.Emit("eliminate",
					obs.KV{Key: "config", Value: j},
					obs.KV{Key: "pair_prcs", Value: pair[j]},
					obs.KV{Key: "alive", Value: d.aliveCount})
			}
		}
	}
}

// nextStratum picks the stratum whose next sample shrinks the summed
// pairwise estimator variance the most (Section 5.2). EqualAlloc mode
// instead keeps per-stratum counts level.
func (d *deltaSampler) nextStratum() int {
	if d.opts.Strat == EqualAlloc {
		bestH, bestN := -1, 0
		for h, s := range d.strata {
			if s.exhausted() {
				continue
			}
			if bestH < 0 || s.n < bestN {
				bestH, bestN = h, s.n
			}
		}
		return bestH
	}
	bestH := -1
	var bestDrop float64
	for h, s := range d.strata {
		if s.exhausted() {
			continue
		}
		if s.n < 2 {
			return h // strata without variance estimates first
		}
		var drop float64
		W := float64(s.size)
		for j := 0; j < d.k; j++ {
			if j == d.best || !d.alive[j] {
				continue
			}
			sum := s.sums[d.best]
			sum.SubKahan(s.sums[j])
			sumsq := s.sumsqs[d.best]
			sumsq.AddKahan(s.sumsqs[j])
			sumsq.SubKahan(s.cross[j].Scaled(2))
			s2, ok := stats.SampleVarFromKahanSums(sum, sumsq, s.n)
			if !ok {
				continue
			}
			n := float64(s.n)
			cur := W * W * s2 / n * (1 - n/W)
			nxt := W * W * s2 / (n + 1) * (1 - (n+1)/W)
			drop += cur - nxt
		}
		// Section 5.2: with non-constant optimization times, maximize the
		// variance reduction relative to the expected overhead.
		drop /= s.avgOver
		if bestH < 0 || drop > bestDrop {
			bestH, bestDrop = h, drop
		}
	}
	return bestH
}

// maybeSplit runs Algorithm 2 when progressive stratification is enabled.
func (d *deltaSampler) maybeSplit() error {
	if d.opts.Strat != Progressive {
		return nil
	}
	// Constraining pair: the alive configuration with the lowest pairwise
	// Pr(CS) versus the incumbent (single ranking, Section 5.1's
	// tractability simplification for Delta Sampling).
	_, pair := d.prCS()
	worst, worstP := -1, 2.0
	for j := 0; j < d.k; j++ {
		if j == d.best || !d.alive[j] {
			continue
		}
		if pair[j] < worstP {
			worst, worstP = j, pair[j]
		}
	}
	if worst < 0 {
		return nil
	}

	// Target variance: the pairwise probability each alive pair must reach
	// so the Bonferroni bound meets α.
	perPair := 1 - (1-d.opts.Alpha)/float64(maxInt(d.aliveCount-1, 1))
	gap := d.estimate(worst) - d.estimate(d.best)
	targetVar := stats.TargetVarianceForPrCS(gap, d.opts.Delta, perPair)
	if math.IsInf(targetVar, 1) {
		return nil
	}

	sc := &d.split
	L := len(d.strata)
	sc.cur = grow(sc.cur, L)
	sc.tstats = grow(sc.tstats, L)
	sc.toffs = grow(sc.toffs, L)
	sc.tbuf = sc.tbuf[:0]
	for h, s := range d.strata {
		sum := s.sums[d.best]
		sum.SubKahan(s.sums[worst])
		sumsq := s.sumsqs[d.best]
		sumsq.AddKahan(s.sumsqs[worst])
		sumsq.SubKahan(s.cross[worst].Scaled(2))
		s2, _ := stats.SampleVarFromKahanSums(sum, sumsq, s.n)
		sc.cur[h] = stats.Stratum{Size: s.size, S2: s2, Taken: s.n}
		start := len(sc.tbuf)
		buf, ok := d.stratumTmplStatsInto(sc.tbuf, s, worst)
		sc.tbuf = buf
		if ok {
			sc.toffs[h] = [2]int{start, len(sc.tbuf)}
		} else {
			sc.toffs[h] = [2]int{-1, -1}
		}
	}
	// Slice tstats only once tbuf has stopped growing: appends above may
	// have reallocated the backing array.
	for h := range d.strata {
		if sc.toffs[h][0] < 0 {
			sc.tstats[h] = nil
		} else {
			sc.tstats[h] = sc.tbuf[sc.toffs[h][0]:sc.toffs[h][1]]
		}
	}
	var sw obs.Stopwatch
	if d.opts.Metrics != nil {
		sw = obs.NewStopwatch()
	}
	dec, evals, ok := findBestSplit(sc, sc.cur, sc.tstats, targetVar, d.opts.NMin)
	if d.opts.Metrics != nil {
		d.met.splitSearch.Observe(sw.Elapsed().Seconds())
	}
	d.met.splitEvals.Add(int64(evals))
	if !ok {
		return nil
	}
	return d.applySplit(dec)
}

// stratumTmplStatsInto appends the stratum's per-template difference
// statistics for the constraining pair to buf, or truncates its
// contribution and reports false when some member template lacks
// observations.
func (d *deltaSampler) stratumTmplStatsInto(buf []tmplStat, s *dStratum, worst int) ([]tmplStat, bool) {
	start := len(buf)
	for _, t := range s.templates {
		if d.tCount[t] < d.opts.MinTemplateObs {
			return buf[:start], false
		}
		n := d.tCount[t]
		sum := d.tSum[t][d.best]
		sum.SubKahan(d.tSum[t][worst])
		sumsq := d.tSumsq[t][d.best]
		sumsq.AddKahan(d.tSumsq[t][worst])
		sumsq.SubKahan(d.tCross[t][worst].Scaled(2))
		m := sum.Sum() / float64(n)
		v, _ := stats.SampleVarFromKahanSums(sum, sumsq, n)
		buf = append(buf, tmplStat{t: t, w: d.tmplSize(t), m: m, v: v})
	}
	return buf, true
}

// applySplit replaces the split stratum with its two children, partitioning
// the unsampled order and replaying the sampled rows into the right child.
func (d *deltaSampler) applySplit(dec splitDecision) error {
	// dec.left aliases the split scratch; copy before retaining it as the
	// child stratum's template list.
	dec.left = append([]int(nil), dec.left...)
	parent := d.strata[dec.stratum]
	leftSet := make(map[int]bool, len(dec.left))
	for _, t := range dec.left {
		leftSet[t] = true
	}
	var rightTmpls []int
	for _, t := range parent.templates {
		if !leftSet[t] {
			rightTmpls = append(rightTmpls, t)
		}
	}

	mk := func(tmpls []int) *dStratum {
		size := 0
		for _, t := range tmpls {
			size += d.tmplSize(t)
		}
		s := &dStratum{
			templates: tmpls,
			size:      size,
			sums:      make([]stats.Kahan, d.k),
			sumsqs:    make([]stats.Kahan, d.k),
			cross:     make([]stats.Kahan, d.k),
			pilotN:    d.opts.NMin,
		}
		if parent.pN != nil {
			// A warm stratum's children keep the prior moments of their own
			// member templates.
			s.pN = make([]int, d.k)
			s.pSum = make([]stats.Kahan, d.k)
			s.pSumsq = make([]stats.Kahan, d.k)
			s.pCross = make([]stats.Kahan, d.k)
			d.reseedStratumPrior(s)
		}
		return s
	}
	left, right := mk(dec.left), mk(rightTmpls)

	inLeft := func(tmpl int) bool { return leftSet[tmpl] }
	// Partition the remaining (unsampled) order, preserving its random
	// relative order within each child.
	for _, q := range parent.order[parent.next:] {
		tmpl := 0
		if d.opts.TemplateIndex != nil {
			tmpl = d.opts.TemplateIndex[q]
		}
		if inLeft(tmpl) {
			left.order = append(left.order, q)
		} else {
			right.order = append(right.order, q)
		}
	}
	// Replay sampled rows into the children.
	for _, ri := range parent.rowIdx {
		row := d.rows[ri]
		child := right
		if inLeft(row.tmpl) {
			child = left
		}
		child.rowIdx = append(child.rowIdx, ri)
		child.n++
		cb := row.costs[d.best]
		for j := 0; j < d.k; j++ {
			c := row.costs[j]
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

	left.avgOver = d.avgOverhead(left.order)
	right.avgOver = d.avgOverhead(right.order)
	d.strata[dec.stratum] = left
	d.strata = append(d.strata, right)
	d.splits++
	d.met.splits.Inc()
	if tr := d.opts.Tracer; tr.Enabled() {
		tr.Emit("split",
			obs.KV{Key: "stratum", Value: dec.stratum},
			obs.KV{Key: "left_templates", Value: len(left.templates)},
			obs.KV{Key: "right_templates", Value: len(right.templates)},
			obs.KV{Key: "left_size", Value: left.size},
			obs.KV{Key: "right_size", Value: right.size},
			obs.KV{Key: "strata", Value: len(d.strata)})
	}

	// Algorithm 1, line 8: top the children up to n_min samples each.
	// want re-clamps every iteration: a degraded query shrinks child.size.
	for _, child := range []*dStratum{left, right} {
		for child.n < minInt(d.opts.NMin, child.size) {
			h := d.indexOf(child)
			progress, err := d.sampleFrom(h)
			if err != nil {
				return err
			}
			if !progress {
				break
			}
		}
	}
	d.chooseBest()
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (d *deltaSampler) indexOf(s *dStratum) int {
	for h, x := range d.strata {
		if x == s {
			return h
		}
	}
	return -1
}

// pilot runs the pilot phase: n_min per stratum (clamped to stratum size
// and budget). Strata are filled round-robin in a shuffled order so a
// budget-truncated pilot (fixed-budget mode with many strata) covers a
// random subset of every stratum instead of completing some strata and
// leaving others untouched — the latter would bias the estimator
// systematically across Monte-Carlo runs.
func (d *deltaSampler) pilot() error {
	order := d.opts.RNG.Perm(len(d.strata))
	if d.opts.Parallelism > 1 {
		return d.pilotBatched(order)
	}
	for {
		progress := false
		for _, h := range order {
			if err := d.opts.ctxErr(); err != nil {
				return err
			}
			if d.strata[h].n < minInt(d.strata[h].pilotN, d.strata[h].size) {
				p, err := d.sampleFrom(h)
				if err != nil {
					return err
				}
				progress = progress || p
			}
		}
		if !progress {
			return nil
		}
	}
}

// pilotBatched evaluates the whole pilot as one batch. The serial
// round-robin — including its per-row budget check (every configuration is
// alive during the pilot, so a row costs exactly k calls) — is replayed
// without touching the oracle to precompute the schedule, the schedule's
// (query × alive configuration) pairs are evaluated in one Eval batch, and
// the rows are folded serially in schedule order. The resulting sampler
// state and call accounting are bit-identical to the serial pilot when no
// probe fails; failed rows degrade per row exactly like the serial path.
func (d *deltaSampler) pilotBatched(order []int) error {
	type slot struct{ h, q int }
	var schedule []slot
	calls := d.o.Calls()
	taken := make([]int, len(d.strata))
outer:
	for {
		progress := false
		for _, h := range order {
			s := d.strata[h]
			want := s.pilotN
			if want > s.size {
				want = s.size
			}
			if taken[h] >= want {
				continue
			}
			if d.opts.MaxCalls > 0 && calls+int64(d.k) > d.opts.MaxCalls {
				break outer // the budget only shrinks: no later row fits either
			}
			schedule = append(schedule, slot{h: h, q: s.order[taken[h]]})
			taken[h]++
			calls += int64(d.k)
			progress = true
		}
		if !progress {
			break
		}
	}
	if err := d.opts.ctxErr(); err != nil {
		return err
	}

	pairs := make([]Pair, 0, len(schedule)*d.k)
	for _, sl := range schedule {
		for j := 0; j < d.k; j++ {
			pairs = append(pairs, Pair{Q: sl.q, J: j})
		}
	}
	out := make([]float64, len(pairs))
	errs := make([]error, len(pairs))
	Eval(d.o, pairs, out, errs, d.opts.Parallelism)
	for i, sl := range schedule {
		d.strata[sl.h].next++
		if err := rowErr(errs[i*d.k : (i+1)*d.k]); err != nil {
			if !errors.Is(err, ErrSkipQuery) {
				return err
			}
			d.dropQuery(d.strata[sl.h], sl.q)
			continue
		}
		d.fold(sl.h, sl.q, out[i*d.k:(i+1)*d.k:(i+1)*d.k])
	}
	return nil
}

// run executes Algorithm 1 and returns the result.
func (d *deltaSampler) run() (*Result, error) {
	tr := d.opts.Tracer
	if err := d.pilot(); err != nil {
		return nil, err
	}
	d.checkPriorDrift()
	d.chooseBest()
	if tr.Enabled() {
		tr.Emit("pilot.done",
			obs.KV{Key: "samples", Value: d.sampled},
			obs.KV{Key: "calls", Value: d.o.Calls()},
			obs.KV{Key: "strata", Value: len(d.strata)})
	}

	round := 0
	stable := 0
	p, pair := d.prCS()
	for {
		round++
		d.met.rounds.Inc()
		var sw obs.Stopwatch
		if d.met.roundSeconds != nil {
			sw = obs.NewStopwatch()
		}
		if err := d.opts.ctxErr(); err != nil {
			return nil, err
		}
		if tr.Enabled() {
			tr.Emit("round",
				obs.KV{Key: "round", Value: round},
				obs.KV{Key: "samples", Value: d.sampled},
				obs.KV{Key: "calls", Value: d.o.Calls()},
				obs.KV{Key: "prcs", Value: p},
				obs.KV{Key: "best", Value: d.best},
				obs.KV{Key: "alive", Value: d.aliveCount},
				obs.KV{Key: "strata", Value: len(d.strata)},
				obs.KV{Key: "splits", Value: d.splits},
				obs.KV{Key: "stable", Value: stable})
		}
		if d.opts.TracePrCS {
			d.trace = append(d.trace, p)
		}
		if d.opts.MaxCalls <= 0 {
			if p > d.opts.Alpha && d.sampled >= d.opts.MinSamples {
				stable++
				if stable >= d.opts.StabilityWindow {
					break
				}
			} else {
				stable = 0
			}
		}
		d.eliminate(pair)
		if err := d.maybeSplit(); err != nil {
			return nil, err
		}
		h := d.nextStratum()
		if h < 0 {
			break // exhausted workload
		}
		progress, err := d.sampleFrom(h)
		if err != nil {
			return nil, err
		}
		if !progress {
			break // exhausted workload or budget
		}
		if tr.Enabled() {
			s := d.strata[h]
			tr.Emit("alloc",
				obs.KV{Key: "stratum", Value: h},
				obs.KV{Key: "stratum_n", Value: s.n},
				obs.KV{Key: "stratum_size", Value: s.size})
		}
		d.checkPriorDrift()
		d.chooseBest()
		p, pair = d.prCS()
		if d.met.roundSeconds != nil {
			d.met.roundSeconds.Observe(sw.Elapsed().Seconds())
		}
	}

	if d.exhaustedAll() && d.degraded == 0 {
		p = 1 // full census: the selection is exact
	}
	return &Result{
		Best:            d.best,
		PrCS:            p,
		SampledQueries:  d.sampled,
		OptimizerCalls:  d.o.Calls(),
		Eliminated:      d.eliminatedFlags(),
		Strata:          len(d.strata),
		Splits:          d.splits,
		DegradedQueries: d.degraded,
		PrCSTrace:       d.trace,
		State:           d.captureState(),
		Warm:            d.winfo,
	}, nil
}

// captureState snapshots the final stratification for a later warm
// start: this run's fresh per-template tallies and moments (per config,
// cross sums relative to the final best), plus the stratum partition as
// template-ID groups. Only fresh samples are captured — a warm run's
// inherited prior never compounds across chained snapshots, so staleness
// is bounded by one generation.
func (d *deltaSampler) captureState() *StratState {
	tc := d.opts.TemplateCount
	if !d.opts.CaptureState || tc <= 0 ||
		len(d.opts.TemplateSigs) != tc || len(d.opts.ConfigFingerprints) != d.k {
		return nil
	}
	// Per-template per-config sample counts from the row history: a
	// configuration eliminated mid-run stops accumulating, so its column
	// is shorter than the shared row count.
	counts := make([][]int, tc)
	for t := range counts {
		counts[t] = make([]int, d.k)
	}
	for _, row := range d.rows {
		for j := 0; j < d.k; j++ {
			if !math.IsNaN(row.costs[j]) {
				counts[row.tmpl][j]++
			}
		}
	}
	st := &StratState{
		Version:        stratStateVersion,
		Scheme:         Delta.String(),
		Strat:          d.opts.Strat.String(),
		K:              d.k,
		Configs:        append([]string(nil), d.opts.ConfigFingerprints...),
		Best:           d.best,
		SampledQueries: d.sampled,
	}
	for t := 0; t < tc; t++ {
		if d.pop.templateSize(t) == 0 {
			continue
		}
		st.Templates = append(st.Templates, TemplateState{
			ID:     d.opts.TemplateSigs[t].ID,
			Params: append([]ParamMoment(nil), d.opts.TemplateSigs[t].Params...),
			Counts: counts[t],
			Sum:    append([]stats.Kahan(nil), d.tSum[t]...),
			Sumsq:  append([]stats.Kahan(nil), d.tSumsq[t]...),
			Cross:  append([]stats.Kahan(nil), d.tCross[t]...),
		})
	}
	groups := make([][]uint64, 0, len(d.strata))
	for _, s := range d.strata {
		g := make([]uint64, len(s.templates))
		for i, t := range s.templates {
			g[i] = d.opts.TemplateSigs[t].ID
		}
		groups = append(groups, g)
	}
	st.Partitions = [][][]uint64{groups}
	return st
}

func (d *deltaSampler) exhaustedAll() bool {
	for _, s := range d.strata {
		if !s.exhausted() {
			return false
		}
	}
	return true
}

func (d *deltaSampler) eliminatedFlags() []bool {
	out := make([]bool, d.k)
	for j := range out {
		out[j] = !d.alive[j]
	}
	return out
}

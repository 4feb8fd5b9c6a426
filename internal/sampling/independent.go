package sampling

import (
	"errors"
	"math"

	"physdes/internal/obs"
	"physdes/internal/stats"
)

// icStratum is one stratum of one configuration's stratification in the
// Independent sampler. Unlike Delta Sampling, every configuration draws
// its own sample and — per Section 5.1 — may maintain its own
// stratification of the workload.
type icStratum struct {
	templates []int
	size      int
	order     []int // permuted query indices for this configuration
	next      int
	n         int
	sum       stats.Kahan
	sumsq     stats.Kahan
	avgOver   float64
	pilotN    int // pilot target (NMin cold, WarmPilot for reused strata)

	// Prior moments from a warm snapshot, aggregated over member
	// templates. They pool into this configuration's mean and variance
	// estimates; fresh samples alone drive exhaustion, census and the
	// finite-population correction.
	hasPrior bool
	pN       int
	pSum     stats.Kahan
	pSumsq   stats.Kahan
}

func (s *icStratum) exhausted() bool { return s.next >= len(s.order) }

// cfgState is one configuration's sampling state.
type cfgState struct {
	strata []*icStratum
	splits int
}

// independentSampler runs Algorithm 1 with Independent Sampling
// (Section 4.1): one sample stream per configuration, and a per-
// configuration progressive stratification (Algorithm 2 runs only for the
// configuration the last sample was chosen from, as the paper prescribes).
type independentSampler struct {
	o    Oracle
	opts Options
	pop  *population

	k, n       int
	alive      []bool
	aliveCount int
	elimPen    float64

	cfg []cfgState

	// Per-template per-configuration statistics for split decisions.
	tCount [][]int
	tSum   [][]stats.Kahan
	tSumsq [][]stats.Kahan

	best        int
	sampled     int
	degraded    int // probes degraded by skip-and-reweight
	lastSampled int // configuration index of the last sample

	// Warm-start state: per-template prior moments in current config
	// order (nil rows for fresh templates).
	pTmplN     [][]int
	pTmplSum   [][]stats.Kahan
	pTmplSumsq [][]stats.Kahan
	winfo      WarmInfo

	met     samplerMetrics
	trace   []float64
	split   splitScratch // reusable split-search buffers
	pairBuf []float64    // reusable pairwise Pr(CS) buffer

	// One-pair Eval buffers for sampleFrom.
	pair [1]Pair
	out  [1]float64
	errs [1]error
}

func newIndependentSampler(o Oracle, opts Options) *independentSampler {
	k, n := o.K(), o.N()
	tc := maxInt(opts.TemplateCount, 1)
	s := &independentSampler{
		o: o, opts: opts,
		pop:        newPopulation(opts.TemplateIndex, opts.TemplateCount, n),
		k:          k,
		n:          n,
		alive:      make([]bool, k),
		aliveCount: k,
		cfg:        make([]cfgState, k),
		tCount:     make([][]int, tc),
		tSum:       make([][]stats.Kahan, tc),
		tSumsq:     make([][]stats.Kahan, tc),
		met:        newSamplerMetrics(opts.Metrics),
	}
	for j := range s.alive {
		s.alive[j] = true
	}
	for t := 0; t < tc; t++ {
		s.tCount[t] = make([]int, k)
		s.tSum[t] = make([]stats.Kahan, k)
		s.tSumsq[t] = make([]stats.Kahan, k)
	}
	if wr := planWarm(opts.WarmState, &opts, Independent, k, s.pop); wr != nil {
		s.initWarm(wr)
	} else {
		for j := 0; j < k; j++ {
			for _, tmpls := range s.pop.initialTemplates(opts.Strat) {
				s.addStratum(j, tmpls)
			}
		}
	}
	return s
}

// initWarm seeds the sampler from a decoded snapshot: prior per-template
// moments remapped to current config order, then each configuration's
// prior stratification (known templates only) with reduced pilots and
// reseeded moments, plus fresh strata for the rest.
func (s *independentSampler) initWarm(wr *warmResume) {
	tc := len(s.tSum)
	s.pTmplN = make([][]int, tc)
	s.pTmplSum = make([][]stats.Kahan, tc)
	s.pTmplSumsq = make([][]stats.Kahan, tc)
	for t := 0; t < tc && t < len(wr.stateIdx); t++ {
		si := wr.stateIdx[t]
		if si < 0 {
			continue
		}
		ts := &wr.st.Templates[si]
		s.pTmplN[t] = make([]int, s.k)
		s.pTmplSum[t] = make([]stats.Kahan, s.k)
		s.pTmplSumsq[t] = make([]stats.Kahan, s.k)
		for j := 0; j < s.k; j++ {
			pj := wr.cfgMap[j]
			s.pTmplN[t][j] = ts.Counts[pj]
			s.pTmplSum[t][j] = ts.Sum[pj]
			s.pTmplSumsq[t][j] = ts.Sumsq[pj]
		}
	}
	reusedTotal := 0
	for j := 0; j < s.k; j++ {
		groups, reused := wr.groupsFor(wr.cfgMap[j], s.pop, s.opts.Strat)
		warm := make([]*icStratum, 0, reused)
		sizes := make([]int, 0, reused)
		for gi, tmpls := range groups {
			st := s.addStratum(j, tmpls)
			if gi < reused {
				warm = append(warm, st)
				sizes = append(sizes, st.size)
			}
		}
		pilots := warmPilotAlloc(sizes, s.opts.NMin, s.opts.WarmPilot)
		for i, st := range warm {
			st.pilotN = pilots[i]
			s.reseedStratumPrior(j, st)
			if saved := minInt(s.opts.NMin, st.size) - minInt(st.pilotN, st.size); saved > 0 {
				s.winfo.PilotSaved += saved
			}
		}
		reusedTotal += reused
	}
	s.winfo.Started = true
	s.winfo.StrataReused = reusedTotal
	s.winfo.TemplatesKnown = wr.known
	s.winfo.TemplatesFresh = wr.fresh
	s.met.warmStarts.Inc()
	s.met.warmStrata.Add(int64(reusedTotal))
	s.met.warmPilotSaved.Add(int64(s.winfo.PilotSaved))
	if tr := s.opts.Tracer; tr.Enabled() {
		tr.Emit("warm",
			obs.KV{Key: "strata_reused", Value: reusedTotal},
			obs.KV{Key: "templates_known", Value: wr.known},
			obs.KV{Key: "templates_fresh", Value: wr.fresh},
			obs.KV{Key: "pilot_saved", Value: s.winfo.PilotSaved})
	}
}

// reseedStratumPrior aggregates the member templates' prior moments for
// configuration j into the stratum's prior accumulators — the
// moment-reseeding hot path of a warm resume and of warm-stratum splits.
//
//physdes:zeroalloc
func (s *independentSampler) reseedStratumPrior(j int, st *icStratum) {
	st.pN = 0
	st.pSum = stats.Kahan{}
	st.pSumsq = stats.Kahan{}
	for _, t := range st.templates {
		pn := s.pTmplN[t]
		if pn == nil {
			continue
		}
		st.pN += pn[j]
		st.pSum.AddKahan(s.pTmplSum[t][j])
		st.pSumsq.AddKahan(s.pTmplSumsq[t][j])
	}
	st.hasPrior = true
}

// checkPriorDrift is the warm path's online safety net (see the Delta
// sampler's variant): every round, each stratum with enough fresh samples
// z-tests its prior mean against the fresh one and sheds the prior on
// disagreement.
//
//physdes:zeroalloc
func (s *independentSampler) checkPriorDrift() {
	for j := 0; j < s.k; j++ {
		if !s.alive[j] {
			continue
		}
		for _, st := range s.cfg[j].strata {
			if !st.hasPrior || st.n < priorCheckMinFresh {
				continue
			}
			if !priorMeansDiffer(st.sum, st.sumsq, st.n, st.pSum, st.pSumsq, st.pN) {
				continue
			}
			st.hasPrior = false
			st.pN = 0
			st.pSum = stats.Kahan{}
			st.pSumsq = stats.Kahan{}
			s.winfo.PriorDropped++
			s.met.warmPriorDrop.Inc() //physdes:allocok atomic counter bump on the rare drop path, no heap allocation
		}
	}
}

func (s *independentSampler) addStratum(j int, templates []int) *icStratum {
	order := s.pop.shuffledMembers(templates, s.opts.RNG)
	st := &icStratum{
		templates: templates,
		size:      len(order),
		order:     order,
		avgOver:   1,
		pilotN:    s.opts.NMin,
	}
	if s.opts.CallCost != nil && st.size > 0 {
		var sum float64
		for _, q := range order {
			sum += s.opts.CallCost(q)
		}
		if avg := sum / float64(st.size); avg > 0 {
			st.avgOver = avg
		}
	}
	s.cfg[j].strata = append(s.cfg[j].strata, st)
	return st
}

func (s *independentSampler) budgetLeft() bool {
	if s.opts.MaxCalls <= 0 {
		return true
	}
	return s.o.Calls() < s.opts.MaxCalls
}

// sampleFrom draws configuration j's next query from its stratum h. The
// bool reports progress (a query was consumed — sampled or degraded); a
// non-nil error aborts the run. A degraded probe (ErrSkipQuery) drops the
// query from this configuration's stratum only, renormalizing that
// stratum's weight — the Independent sampler keeps per-configuration
// stratifications, and a split later regenerates member orders from the
// full population, giving a transiently-failing query a fresh chance.
func (s *independentSampler) sampleFrom(j, h int) (bool, error) {
	st := s.cfg[j].strata[h]
	if st.exhausted() || !s.budgetLeft() {
		return false, nil
	}
	q := st.order[st.next]
	st.next++
	s.pair[0] = Pair{Q: q, J: j}
	Eval(s.o, s.pair[:], s.out[:], s.errs[:], s.opts.Parallelism)
	if err := s.errs[0]; err != nil {
		if !errors.Is(err, ErrSkipQuery) {
			return false, err
		}
		st.size--
		s.degraded++
		return true, nil
	}
	s.fold(j, h, q, s.out[0])
	return true, nil
}

// fold records one sample of configuration j's stratum h. As in the Delta
// sampler, the fold is the only state mutation and always runs serially in
// schedule order (the determinism contract).
func (s *independentSampler) fold(j, h, q int, c float64) {
	st := s.cfg[j].strata[h]
	st.n++
	s.sampled++
	s.met.samples.Inc()
	s.lastSampled = j

	st.sum.Add(c)
	st.sumsq.AddProduct(c, c)
	tmpl := 0
	if s.opts.TemplateIndex != nil {
		tmpl = s.opts.TemplateIndex[q]
	}
	s.tCount[tmpl][j]++
	s.tSum[tmpl][j].Add(c)
	s.tSumsq[tmpl][j].AddProduct(c, c)
}

// estimate returns X_j = Σ_h |WL_h|·mean_h over configuration j's strata,
// with the global-mean fallback for unsampled strata.
func (s *independentSampler) estimate(j int) float64 {
	var gSum stats.Kahan
	gN := 0
	for _, st := range s.cfg[j].strata {
		gSum.AddKahan(st.sum)
		gN += st.n
		if st.hasPrior {
			pe, f := priorEff(st.pN, st.n)
			gSum.AddKahan(st.pSum.Scaled(f))
			gN += pe
		}
	}
	gMean := 0.0
	if gN > 0 {
		gMean = gSum.Sum() / float64(gN)
	}
	var x float64
	for _, st := range s.cfg[j].strata {
		n := st.n
		sum := st.sum
		if st.hasPrior {
			pe, f := priorEff(st.pN, st.n)
			n += pe
			sum.AddKahan(st.pSum.Scaled(f))
		}
		if n > 0 {
			x += float64(st.size) * (sum.Sum() / float64(n))
		} else {
			x += float64(st.size) * gMean
		}
	}
	return x
}

// estVar returns Var(X_j) per Equation 5 over configuration j's strata.
func (s *independentSampler) estVar(j int) float64 {
	var gSum, gSumsq stats.Kahan
	gN := 0
	for _, st := range s.cfg[j].strata {
		gSum.AddKahan(st.sum)
		gSumsq.AddKahan(st.sumsq)
		gN += st.n
		if st.hasPrior {
			pe, f := priorEff(st.pN, st.n)
			gSum.AddKahan(st.pSum.Scaled(f))
			gSumsq.AddKahan(st.pSumsq.Scaled(f))
			gN += pe
		}
	}
	gVar, _ := stats.SampleVarFromKahanSums(gSum, gSumsq, gN)
	boundS2, haveBound := 0.0, false
	if bound := s.opts.VarianceBound; bound != nil {
		boundS2, haveBound = bound([2]int{j, j}, gN)
	}
	if haveBound && boundS2 > gVar {
		gVar = boundS2
	}
	var v float64
	for _, st := range s.cfg[j].strata {
		if st.n >= st.size {
			continue
		}
		nEff := st.n
		sum := st.sum
		sumsq := st.sumsq
		if st.hasPrior {
			pe, f := priorEff(st.pN, st.n)
			nEff += pe
			sum.AddKahan(st.pSum.Scaled(f))
			sumsq.AddKahan(st.pSumsq.Scaled(f))
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
		W := float64(st.size)
		v += W * W * s2 / float64(nEff) * (1 - float64(st.n)/W)
	}
	return v
}

func (s *independentSampler) prCS() (float64, []float64) {
	xb := s.estimate(s.best)
	vb := s.estVar(s.best)
	s.pairBuf = grow(s.pairBuf, s.k)
	pair := s.pairBuf
	for i := range pair {
		pair[i] = 0
	}
	p := 1 - s.elimPen
	for j := 0; j < s.k; j++ {
		if j == s.best || !s.alive[j] {
			continue
		}
		gap := s.estimate(j) - xb
		se := math.Sqrt(math.Max(vb+s.estVar(j), 0))
		pij := stats.PairwisePrCS(gap, s.opts.Delta, se)
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

func (s *independentSampler) chooseBest() {
	best := -1
	var bx float64
	for j := 0; j < s.k; j++ {
		if !s.alive[j] {
			continue
		}
		x := s.estimate(j)
		if best < 0 || x < bx {
			best, bx = j, x
		}
	}
	if best >= 0 {
		s.best = best
	}
}

func (s *independentSampler) eliminate(pair []float64) {
	th := s.opts.EliminationThreshold
	if th <= 0 {
		return
	}
	if s.sampled < 2*s.opts.NMin*s.k {
		return // see the Delta sampler's elimination guard
	}
	for j := 0; j < s.k; j++ {
		if j == s.best || !s.alive[j] {
			continue
		}
		if pair[j] > th {
			s.alive[j] = false
			s.aliveCount--
			s.elimPen += 1 - pair[j]
			s.met.eliminations.Inc()
			if tr := s.opts.Tracer; tr.Enabled() {
				tr.Emit("eliminate",
					obs.KV{Key: "config", Value: j},
					obs.KV{Key: "pair_prcs", Value: pair[j]},
					obs.KV{Key: "alive", Value: s.aliveCount})
			}
		}
	}
}

// nextSample picks the (configuration, stratum) pair whose extra sample
// most reduces Σᵢ Var(Xᵢ) per unit of optimization overhead (Section
// 5.2). EqualAlloc keeps per-stratum counts level, cycling configurations.
func (s *independentSampler) nextSample() (j, h int) {
	if s.opts.Strat == EqualAlloc {
		bestJ, bestH, bestN := -1, -1, 0
		for ji := 0; ji < s.k; ji++ {
			if !s.alive[ji] {
				continue
			}
			for hi, st := range s.cfg[ji].strata {
				if st.exhausted() {
					continue
				}
				if bestJ < 0 || st.n < bestN {
					bestJ, bestH, bestN = ji, hi, st.n
				}
			}
		}
		return bestJ, bestH
	}
	bestJ, bestH := -1, -1
	var bestDrop float64
	for ji := 0; ji < s.k; ji++ {
		if !s.alive[ji] {
			continue
		}
		for hi, st := range s.cfg[ji].strata {
			if st.exhausted() {
				continue
			}
			if st.n < 2 {
				return ji, hi
			}
			s2, ok := stats.SampleVarFromKahanSums(st.sum, st.sumsq, st.n)
			if !ok {
				continue
			}
			W := float64(st.size)
			n := float64(st.n)
			cur := W * W * s2 / n * (1 - n/W)
			nxt := W * W * s2 / (n + 1) * (1 - (n+1)/W)
			drop := (cur - nxt) / st.avgOver
			if bestJ < 0 || drop > bestDrop {
				bestJ, bestH, bestDrop = ji, hi, drop
			}
		}
	}
	return bestJ, bestH
}

// maybeSplit runs Algorithm 2 for the configuration of the last sample,
// against that configuration's own stratification.
func (s *independentSampler) maybeSplit() error {
	if s.opts.Strat != Progressive {
		return nil
	}
	ci := s.lastSampled
	if !s.alive[ci] {
		return nil
	}
	perPair := 1 - (1-s.opts.Alpha)/float64(maxInt(s.aliveCount-1, 1))
	// Target variance for configuration ci: half of the pair target against
	// the incumbent (the pair variance is the sum of two estimator
	// variances in Equation 2).
	other := s.best
	if ci == s.best {
		// Use the worst alive pair instead.
		_, pair := s.prCS()
		worstP := 2.0
		for j := 0; j < s.k; j++ {
			if j == s.best || !s.alive[j] {
				continue
			}
			if pair[j] < worstP {
				worstP = pair[j]
				other = j
			}
		}
		if other == s.best {
			return nil
		}
	}
	gap := math.Abs(s.estimate(other) - s.estimate(s.best))
	targetVar := stats.TargetVarianceForPrCS(gap, s.opts.Delta, perPair) / 2
	if math.IsInf(targetVar, 1) {
		return nil
	}

	strata := s.cfg[ci].strata
	sc := &s.split
	L := len(strata)
	sc.cur = grow(sc.cur, L)
	sc.tstats = grow(sc.tstats, L)
	sc.toffs = grow(sc.toffs, L)
	sc.tbuf = sc.tbuf[:0]
	for h, st := range strata {
		s2, _ := stats.SampleVarFromKahanSums(st.sum, st.sumsq, st.n)
		sc.cur[h] = stats.Stratum{Size: st.size, S2: s2, Taken: st.n}
		start := len(sc.tbuf)
		buf, ok := s.stratumTmplStatsInto(sc.tbuf, st, ci)
		sc.tbuf = buf
		if ok {
			sc.toffs[h] = [2]int{start, len(sc.tbuf)}
		} else {
			sc.toffs[h] = [2]int{-1, -1}
		}
	}
	// Slice tstats only once tbuf has stopped growing: appends above may
	// have reallocated the backing array.
	for h := range strata {
		if sc.toffs[h][0] < 0 {
			sc.tstats[h] = nil
		} else {
			sc.tstats[h] = sc.tbuf[sc.toffs[h][0]:sc.toffs[h][1]]
		}
	}
	var sw obs.Stopwatch
	if s.opts.Metrics != nil {
		sw = obs.NewStopwatch()
	}
	dec, evals, ok := findBestSplit(sc, sc.cur, sc.tstats, targetVar, s.opts.NMin)
	if s.opts.Metrics != nil {
		s.met.splitSearch.Observe(sw.Elapsed().Seconds())
	}
	s.met.splitEvals.Add(int64(evals))
	if !ok {
		return nil
	}
	return s.applySplit(ci, dec)
}

// stratumTmplStatsInto appends the stratum's per-template statistics to
// buf, or truncates its contribution and reports false when some member
// template lacks observations.
func (s *independentSampler) stratumTmplStatsInto(buf []tmplStat, st *icStratum, ci int) ([]tmplStat, bool) {
	start := len(buf)
	for _, t := range st.templates {
		if s.tCount[t][ci] < s.opts.MinTemplateObs {
			return buf[:start], false
		}
		n := s.tCount[t][ci]
		m := s.tSum[t][ci].Sum() / float64(n)
		v, _ := stats.SampleVarFromKahanSums(s.tSum[t][ci], s.tSumsq[t][ci], n)
		buf = append(buf, tmplStat{t: t, w: s.pop.templateSize(t), m: m, v: v})
	}
	return buf, true
}

// applySplit replaces configuration ci's stratum with its two children.
// The Independent sampler keeps no per-row history, so each child restarts
// its accumulators and receives a fresh pilot — a conservative
// simplification that charges the split's cost explicitly.
func (s *independentSampler) applySplit(ci int, dec splitDecision) error {
	// dec.left aliases the split scratch; copy before retaining it as the
	// child stratum's template list.
	dec.left = append([]int(nil), dec.left...)
	strata := s.cfg[ci].strata
	parent := strata[dec.stratum]
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
	// Remove the parent, add children with fresh orders.
	strata[dec.stratum] = strata[len(strata)-1]
	s.cfg[ci].strata = strata[:len(strata)-1]
	left := s.addStratum(ci, dec.left)
	right := s.addStratum(ci, rightTmpls)
	if parent.hasPrior {
		// A warm stratum's children keep the prior moments of their own
		// member templates.
		s.reseedStratumPrior(ci, left)
		s.reseedStratumPrior(ci, right)
	}
	s.cfg[ci].splits++
	s.met.splits.Inc()
	if tr := s.opts.Tracer; tr.Enabled() {
		tr.Emit("split",
			obs.KV{Key: "config", Value: ci},
			obs.KV{Key: "left_templates", Value: len(left.templates)},
			obs.KV{Key: "right_templates", Value: len(right.templates)},
			obs.KV{Key: "left_size", Value: left.size},
			obs.KV{Key: "right_size", Value: right.size},
			obs.KV{Key: "strata", Value: len(s.cfg[ci].strata)})
	}

	for _, child := range []*icStratum{left, right} {
		h := s.stratumIndex(ci, child)
		// want re-clamps every iteration: a degraded query shrinks child.size.
		for child.n < minInt(s.opts.NMin, child.size) {
			progress, err := s.sampleFrom(ci, h)
			if err != nil {
				return err
			}
			if !progress {
				break
			}
		}
	}
	s.chooseBest()
	return nil
}

func (s *independentSampler) stratumIndex(ci int, st *icStratum) int {
	for h, x := range s.cfg[ci].strata {
		if x == st {
			return h
		}
	}
	return -1
}

// pilot runs the pilot phase: round-robin over shuffled (configuration,
// stratum) slots so a truncated pilot spreads evenly (see the Delta
// sampler's pilot note).
func (s *independentSampler) pilot() error {
	order := s.opts.RNG.Perm(s.k)
	if s.opts.Parallelism > 1 {
		return s.pilotBatched(order)
	}
	for {
		progress := false
		for _, j := range order {
			if err := s.opts.ctxErr(); err != nil {
				return err
			}
			for h := range s.cfg[j].strata {
				st := s.cfg[j].strata[h]
				if st.n < minInt(st.pilotN, st.size) {
					p, err := s.sampleFrom(j, h)
					if err != nil {
						return err
					}
					progress = progress || p
				}
			}
		}
		if !progress {
			return nil
		}
	}
}

// pilotBatched evaluates the whole pilot as one batch: the serial
// round-robin (one optimizer call per sample, budget-checked per sample)
// is replayed to precompute the schedule, the schedule evaluates in one
// Eval batch, and samples fold serially in schedule order — bit-identical
// state and accounting versus the serial pilot when no probe fails;
// failed slots degrade exactly like the serial path.
func (s *independentSampler) pilotBatched(order []int) error {
	type slot struct{ j, h, q int }
	var schedule []slot
	calls := s.o.Calls()
	taken := make([][]int, s.k)
	for j := range taken {
		taken[j] = make([]int, len(s.cfg[j].strata))
	}
outer:
	for {
		progress := false
		for _, j := range order {
			for h, st := range s.cfg[j].strata {
				want := st.pilotN
				if want > st.size {
					want = st.size
				}
				if taken[j][h] >= want {
					continue
				}
				if s.opts.MaxCalls > 0 && calls >= s.opts.MaxCalls {
					break outer // no later sample fits either
				}
				schedule = append(schedule, slot{j: j, h: h, q: st.order[taken[j][h]]})
				taken[j][h]++
				calls++
				progress = true
			}
		}
		if !progress {
			break
		}
	}

	if err := s.opts.ctxErr(); err != nil {
		return err
	}
	pairs := make([]Pair, len(schedule))
	for i, sl := range schedule {
		pairs[i] = Pair{Q: sl.q, J: sl.j}
	}
	out := make([]float64, len(pairs))
	errs := make([]error, len(pairs))
	Eval(s.o, pairs, out, errs, s.opts.Parallelism)
	for i, sl := range schedule {
		st := s.cfg[sl.j].strata[sl.h]
		st.next++
		if err := errs[i]; err != nil {
			if !errors.Is(err, ErrSkipQuery) {
				return err
			}
			st.size--
			s.degraded++
			continue
		}
		s.fold(sl.j, sl.h, sl.q, out[i])
	}
	return nil
}

func (s *independentSampler) run() (*Result, error) {
	tr := s.opts.Tracer
	if err := s.pilot(); err != nil {
		return nil, err
	}
	s.checkPriorDrift()
	s.chooseBest()
	if tr.Enabled() {
		tr.Emit("pilot.done",
			obs.KV{Key: "samples", Value: s.sampled},
			obs.KV{Key: "calls", Value: s.o.Calls()})
	}

	round := 0
	stable := 0
	p, pair := s.prCS()
	for {
		round++
		s.met.rounds.Inc()
		var sw obs.Stopwatch
		if s.met.roundSeconds != nil {
			sw = obs.NewStopwatch()
		}
		if err := s.opts.ctxErr(); err != nil {
			return nil, err
		}
		if tr.Enabled() {
			tr.Emit("round",
				obs.KV{Key: "round", Value: round},
				obs.KV{Key: "samples", Value: s.sampled},
				obs.KV{Key: "calls", Value: s.o.Calls()},
				obs.KV{Key: "prcs", Value: p},
				obs.KV{Key: "best", Value: s.best},
				obs.KV{Key: "alive", Value: s.aliveCount},
				obs.KV{Key: "stable", Value: stable})
		}
		if s.opts.TracePrCS {
			s.trace = append(s.trace, p)
		}
		if s.opts.MaxCalls <= 0 {
			if p > s.opts.Alpha && s.sampled >= s.opts.MinSamples {
				stable++
				if stable >= s.opts.StabilityWindow {
					break
				}
			} else {
				stable = 0
			}
		}
		s.eliminate(pair)
		if err := s.maybeSplit(); err != nil {
			return nil, err
		}
		j, h := s.nextSample()
		if j < 0 {
			break
		}
		progress, err := s.sampleFrom(j, h)
		if err != nil {
			return nil, err
		}
		if !progress {
			break
		}
		if tr.Enabled() {
			st := s.cfg[j].strata[h]
			tr.Emit("alloc",
				obs.KV{Key: "config", Value: j},
				obs.KV{Key: "stratum", Value: h},
				obs.KV{Key: "stratum_n", Value: st.n},
				obs.KV{Key: "stratum_size", Value: st.size})
		}
		s.checkPriorDrift()
		s.chooseBest()
		p, pair = s.prCS()
		if s.met.roundSeconds != nil {
			s.met.roundSeconds.Observe(sw.Elapsed().Seconds())
		}
	}

	if s.exhaustedAll() && s.degraded == 0 {
		p = 1
	}
	strataCount, splits := 0, 0
	for j := 0; j < s.k; j++ {
		if len(s.cfg[j].strata) > strataCount {
			strataCount = len(s.cfg[j].strata)
		}
		splits += s.cfg[j].splits
	}
	return &Result{
		Best:            s.best,
		PrCS:            p,
		SampledQueries:  s.sampled,
		OptimizerCalls:  s.o.Calls(),
		Eliminated:      s.eliminatedFlags(),
		Strata:          strataCount,
		Splits:          splits,
		DegradedQueries: s.degraded,
		PrCSTrace:       s.trace,
		State:           s.captureState(),
		Warm:            s.winfo,
	}, nil
}

// captureState snapshots the final per-configuration stratifications and
// this run's fresh per-template tallies and moments for a later warm
// start. Inherited prior moments are not re-captured (see the Delta
// sampler's captureState).
func (s *independentSampler) captureState() *StratState {
	tc := s.opts.TemplateCount
	if !s.opts.CaptureState || tc <= 0 ||
		len(s.opts.TemplateSigs) != tc || len(s.opts.ConfigFingerprints) != s.k {
		return nil
	}
	st := &StratState{
		Version:        stratStateVersion,
		Scheme:         Independent.String(),
		Strat:          s.opts.Strat.String(),
		K:              s.k,
		Configs:        append([]string(nil), s.opts.ConfigFingerprints...),
		Best:           s.best,
		SampledQueries: s.sampled,
	}
	for t := 0; t < tc; t++ {
		if s.pop.templateSize(t) == 0 {
			continue
		}
		st.Templates = append(st.Templates, TemplateState{
			ID:     s.opts.TemplateSigs[t].ID,
			Params: append([]ParamMoment(nil), s.opts.TemplateSigs[t].Params...),
			Counts: append([]int(nil), s.tCount[t]...),
			Sum:    append([]stats.Kahan(nil), s.tSum[t]...),
			Sumsq:  append([]stats.Kahan(nil), s.tSumsq[t]...),
		})
	}
	st.Partitions = make([][][]uint64, s.k)
	for j := 0; j < s.k; j++ {
		groups := make([][]uint64, 0, len(s.cfg[j].strata))
		for _, ics := range s.cfg[j].strata {
			g := make([]uint64, len(ics.templates))
			for i, t := range ics.templates {
				g[i] = s.opts.TemplateSigs[t].ID
			}
			groups = append(groups, g)
		}
		st.Partitions[j] = groups
	}
	return st
}

func (s *independentSampler) exhaustedAll() bool {
	for j := 0; j < s.k; j++ {
		if !s.alive[j] {
			continue
		}
		for _, st := range s.cfg[j].strata {
			if !st.exhausted() {
				return false
			}
		}
	}
	return true
}

func (s *independentSampler) eliminatedFlags() []bool {
	out := make([]bool, s.k)
	for j := range out {
		out[j] = !s.alive[j]
	}
	return out
}

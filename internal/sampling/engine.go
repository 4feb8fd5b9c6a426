package sampling

import (
	"errors"
	"math"
	"slices"

	"physdes/internal/obs"
	"physdes/internal/stats"
)

// Run executes the configuration-selection procedure (Algorithm 1) with the
// selected scheme and stratification mode, terminating when Pr(CS) exceeds
// Options.Alpha for the stability window (adaptive mode) or when the call
// budget is exhausted (fixed-budget mode). Observability — the per-sample
// Pr(CS) trace, the structured event tracer and the metrics registry — is
// configured through Options (TracePrCS, Tracer, Metrics).
func Run(o Oracle, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(o); err != nil {
		return nil, err
	}
	if err := opts.ctxErr(); err != nil {
		return nil, err
	}
	return newEngine(o, opts).run()
}

// estimator is the scheme-specific half of Algorithm 1. The engine owns
// the strata, the pilot, Pr(CS), elimination, the round loop, the split
// plumbing, warm resume and state capture; an estimator supplies only
// what Independent Sampling (Section 4.1) and Delta Sampling (Section
// 4.2) do differently. The engine calls each method at most once per
// configuration or stratum per round, so the moment loops over strata ×
// configurations stay on concrete slices inside them.
type estimator interface {
	// pairVars writes Var(X_best − X_j) into v[j] for every alive j ≠ best.
	pairVars(v []float64)
	// neyman picks the next (stratification, stratum) by Section 5.2's
	// variance reduction per unit of overhead; (-1, -1) when exhausted.
	neyman() (p, h int)
	// splitTarget picks the stratification Algorithm 2 refines and its
	// target variance; ok=false skips the split.
	splitTarget() (p int, targetVar float64, ok bool)
	// splitStats returns stratum s's S² of the split variable and appends
	// its per-template statistics to buf (truncating them and reporting
	// false when a member template lacks observations).
	splitStats(buf []tmplStat, p int, s *stratum) (float64, []tmplStat, bool)
	// children replaces stratum h of stratification p with children over
	// the left and right template sets.
	children(p, h int, left, right []int, inLeft map[int]bool) (*stratum, *stratum)
	// bestChanged follows an incumbent change.
	bestChanged()
	// drifted reports whether stratum s's warm prior contradicts its
	// fresh samples.
	drifted(s *stratum) bool
}

// stratum is one stratum of a stratification. Its moment columns follow
// the configurations the stratification covers: every configuration for
// Delta Sampling's shared stratification, the owning configuration alone
// for each of Independent Sampling's.
type stratum struct {
	templates []int
	size      int
	order     []int // permuted unsampled query indices
	next      int
	n         int
	sums      []stats.Kahan // per column Σ cost
	sumsqs    []stats.Kahan // per column Σ cost²
	cross     []stats.Kahan // per column Σ cost_best·cost_j (Delta only)
	rowIdx    []int         // indices into the row history (Delta only)
	avgOver   float64       // mean optimization overhead of member queries
	pilotN    int           // pilot target (NMin cold, warm share for reused strata)

	// Prior moments from a warm snapshot, aggregated over member
	// templates (nil on cold runs and fresh strata). They pool into the
	// estimates; fresh samples alone drive exhaustion, census and the
	// finite-population correction.
	pN     []int         // per column prior sample count
	pSum   []stats.Kahan // per column prior Σ cost
	pSumsq []stats.Kahan // per column prior Σ cost²
	pCross []stats.Kahan // per column prior Σ cost_best·cost_j vs the prior best
}

func (s *stratum) exhausted() bool { return s.next >= len(s.order) }

// samplerMetrics holds the engine's metric handles for both schemes,
// resolved once at construction. Without a registry every handle is nil
// and each update is a no-op nil-check.
type samplerMetrics struct {
	samples        *obs.Counter
	rounds         *obs.Counter
	splits         *obs.Counter
	eliminations   *obs.Counter
	splitEvals     *obs.Counter
	splitSearch    *obs.Histogram
	roundSeconds   *obs.Histogram
	warmStarts     *obs.Counter
	warmStrata     *obs.Counter
	warmPilotSaved *obs.Counter
	warmPriorDrop  *obs.Counter
}

func newSamplerMetrics(r *obs.Registry) samplerMetrics {
	return samplerMetrics{
		samples:        r.Counter("sampling_samples_total"),
		rounds:         r.Counter("sampling_rounds_total"),
		splits:         r.Counter("sampling_splits_total"),
		eliminations:   r.Counter("sampling_eliminations_total"),
		splitEvals:     r.Counter("sampling_split_evals_total"),
		splitSearch:    r.Histogram("sampling_split_search_seconds"),
		roundSeconds:   r.Histogram("select_round_seconds"),
		warmStarts:     r.Counter("sampling_warm_starts_total"),
		warmStrata:     r.Counter("sampling_warm_strata_reused_total"),
		warmPilotSaved: r.Counter("sampling_warm_pilot_saved_total"),
		warmPriorDrop:  r.Counter("sampling_warm_prior_dropped_total"),
	}
}

// row is one Delta-sampled query's cost vector (NaN for configurations
// already eliminated at sampling time).
type row struct {
	tmpl  int
	costs []float64
}

// engine runs Algorithm 1 over one or more stratifications of the
// workload: one shared by every configuration (Delta), or one per
// configuration (Independent).
type engine struct {
	o      Oracle
	opts   Options
	pop    *population
	est    estimator
	scheme Scheme
	k      int
	shared bool         // one stratification shared by every configuration
	parts  [][]*stratum // the stratifications: one shared, or one per configuration

	alive      []bool
	aliveCount int
	elimPen    float64 // Σ (1 − Pr(CS)) at elimination time
	best       int
	sampled    int
	splits     int
	last       int // stratification of the last sample

	// Skip-and-reweight bookkeeping: queries the oracle degraded out of
	// the run. tmplDropped renormalizes Delta's template weights for
	// Algorithm 2.
	degraded    int
	tmplDropped []int

	// Per-template per-configuration statistics for split decisions and
	// state capture; tCross and the row history exist for Delta only
	// (cross sums follow the incumbent and are rebuilt from the rows).
	tCount [][]int
	tSum   [][]stats.Kahan
	tSumsq [][]stats.Kahan
	tCross [][]stats.Kahan
	rows   []row

	// Warm-start state: the snapshot decoded against this run (nil cold)
	// and its winner as a current config index (-1 cold).
	warm      *warmResume
	priorBest int
	winfo     WarmInfo

	met     samplerMetrics
	trace   []float64
	split   splitScratch // reusable split-search buffers
	pairBuf []float64    // reusable pairwise Pr(CS) buffer
	varBuf  []float64    // reusable pairwise variance buffer

	// Reusable evalFold batch buffers.
	pairs []Pair
	out   []float64
	errs  []error
}

func newEngine(o Oracle, opts Options) *engine {
	k, tc := o.K(), max(opts.TemplateCount, 1)
	e := &engine{
		o: o, opts: opts,
		pop:         newPopulation(opts.TemplateIndex, opts.TemplateCount, o.N()),
		scheme:      Independent,
		k:           k,
		alive:       make([]bool, k),
		aliveCount:  k,
		priorBest:   -1,
		tmplDropped: make([]int, tc),
		tCount:      make([][]int, tc),
		tSum:        make([][]stats.Kahan, tc),
		tSumsq:      make([][]stats.Kahan, tc),
		met:         newSamplerMetrics(opts.Metrics),
		pairBuf:     make([]float64, k),
		varBuf:      make([]float64, k),
	}
	if opts.Scheme == Delta {
		e.scheme, e.shared = Delta, true
		e.parts = make([][]*stratum, 1)
		e.tCross = make([][]stats.Kahan, tc)
		e.est = &deltaEst{engine: e}
	} else {
		e.parts = make([][]*stratum, k)
		e.est = &indepEst{e}
	}
	for j := range e.alive {
		e.alive[j] = true
	}
	for t := 0; t < tc; t++ {
		e.tCount[t] = make([]int, k)
		e.tSum[t] = make([]stats.Kahan, k)
		e.tSumsq[t] = make([]stats.Kahan, k)
		if e.tCross != nil {
			e.tCross[t] = make([]stats.Kahan, k)
		}
	}
	if wr := planWarm(opts.WarmState, &opts, e.scheme, k, e.pop); wr != nil {
		e.initWarm(wr)
	} else {
		for p := range e.parts {
			for _, tmpls := range e.pop.initialTemplates(opts.Strat) {
				e.addStratum(p, tmpls)
			}
		}
	}
	return e
}

// firstCfg is the configuration of stratification p's first column.
func (e *engine) firstCfg(p int) int {
	if e.shared {
		return 0
	}
	return p
}

// partAlive reports whether stratification p still covers an alive
// configuration.
func (e *engine) partAlive(p int) bool { return e.shared || e.alive[p] }

func (e *engine) tmplOf(q int) int {
	if e.opts.TemplateIndex == nil {
		return 0
	}
	return e.opts.TemplateIndex[q]
}

// initWarm seeds the sampler from a decoded snapshot: each
// stratification's snapshot strata (known templates only) with reduced
// pilots and reseeded prior moments, plus fresh strata for the remaining
// templates.
func (e *engine) initWarm(wr *warmResume) {
	e.warm, e.priorBest = wr, wr.best
	if wr.best >= 0 {
		e.best = wr.best
	}
	for p := range e.parts {
		pi := 0
		if !e.shared {
			pi = wr.cfgMap[p]
		}
		groups, reused := wr.groupsFor(pi, e.pop, e.opts.Strat)
		warm := make([]*stratum, 0, reused)
		sizes := make([]int, 0, reused)
		for gi, tmpls := range groups {
			s := e.addStratum(p, tmpls)
			if gi < reused {
				warm = append(warm, s)
				sizes = append(sizes, s.size)
			}
		}
		pilots := warmPilotAlloc(sizes, e.opts.NMin, warmPilotCap)
		for i, s := range warm {
			s.pilotN = pilots[i]
			e.seedPrior(p, s)
			if saved := min(e.opts.NMin, s.size) - min(s.pilotN, s.size); saved > 0 {
				e.winfo.PilotSaved += saved
			}
		}
		e.winfo.StrataReused += reused
	}
	e.winfo.Started, e.winfo.TemplatesKnown, e.winfo.TemplatesFresh = true, wr.known, wr.fresh
	e.met.warmStarts.Inc()
	e.met.warmStrata.Add(int64(e.winfo.StrataReused))
	e.met.warmPilotSaved.Add(int64(e.winfo.PilotSaved))
	if tr := e.opts.Tracer; tr.Enabled() {
		tr.Emit("warm",
			obs.KV{Key: "strata_reused", Value: e.winfo.StrataReused},
			obs.KV{Key: "templates_known", Value: wr.known},
			obs.KV{Key: "templates_fresh", Value: wr.fresh},
			obs.KV{Key: "pilot_saved", Value: e.winfo.PilotSaved})
	}
}

// seedPrior gives stratum s of stratification p prior accumulators and
// fills them from its member templates.
func (e *engine) seedPrior(p int, s *stratum) {
	cols := len(s.sums)
	s.pN, s.pSum, s.pSumsq = make([]int, cols), make([]stats.Kahan, cols), make([]stats.Kahan, cols)
	if s.cross != nil {
		s.pCross = make([]stats.Kahan, cols)
	}
	e.reseedPrior(p, s)
}

// reseedPrior aggregates the snapshot moments of the stratum's member
// templates into its freshly allocated prior accumulators, remapped to
// current configuration order — the moment-reseeding hot path of a warm
// resume (and of every later split of a warm stratum).
//
//physdes:zeroalloc
func (e *engine) reseedPrior(p int, s *stratum) {
	j0, wr := e.firstCfg(p), e.warm
	for _, t := range s.templates {
		si := wr.stateIdx[t]
		if si < 0 {
			continue
		}
		ts := &wr.st.Templates[si]
		for c := range s.pN {
			pj := wr.cfgMap[j0+c]
			s.pN[c] += ts.Counts[pj]
			s.pSum[c].AddKahan(ts.Sum[pj])
			s.pSumsq[c].AddKahan(ts.Sumsq[pj])
			if s.pCross != nil {
				s.pCross[c].AddKahan(ts.Cross[pj])
			}
		}
	}
}

// checkPriorDrift is the warm path's online safety net: every round, each
// warm stratum with enough fresh samples tests its prior against the
// fresh evidence (see the estimators' drifted) and sheds the entire
// stratum prior on disagreement. A snapshot that described a different
// cost distribution (drift the parameter signatures missed) would
// otherwise pull the pooled estimates — confidently — toward the previous
// run's winner.
//
//physdes:zeroalloc
func (e *engine) checkPriorDrift() {
	for p, strata := range e.parts {
		if !e.partAlive(p) {
			continue
		}
		for _, s := range strata {
			if s.pN == nil || s.n < priorCheckMinFresh {
				continue
			}
			if !e.est.drifted(s) { //physdes:allocok both estimators' drifted are //physdes:zeroalloc
				continue
			}
			s.pN, s.pSum, s.pSumsq, s.pCross = nil, nil, nil, nil
			e.winfo.PriorDropped++
			e.met.warmPriorDrop.Inc() //physdes:allocok atomic counter bump on the rare drop path, no heap allocation
		}
	}
}

func (e *engine) addStratum(p int, templates []int) *stratum {
	order := e.pop.shuffledMembers(templates, e.opts.RNG)
	s := e.newStratum(templates, order, len(order))
	e.parts[p] = append(e.parts[p], s)
	return s
}

func (e *engine) newStratum(templates, order []int, size int) *stratum {
	s := &stratum{templates: templates, size: size, order: order, avgOver: e.avgOverhead(order), pilotN: e.opts.NMin}
	cols := 1
	if e.shared {
		cols = e.k
		s.cross = make([]stats.Kahan, cols)
	}
	s.sums, s.sumsqs = make([]stats.Kahan, cols), make([]stats.Kahan, cols)
	return s
}

// avgOverhead is the mean per-call optimization overhead of the queries
// (1 when no CallCost model is configured).
func (e *engine) avgOverhead(queries []int) float64 {
	if e.opts.CallCost == nil || len(queries) == 0 {
		return 1
	}
	var sum float64
	for _, q := range queries {
		sum += e.opts.CallCost(q)
	}
	if avg := sum / float64(len(queries)); avg > 0 {
		return avg
	}
	return 1
}

// slot is one scheduled sample: query q of stratum h of stratification p.
type slot struct{ p, h, q int }

// charge is the call count of one sample: one call per alive
// configuration its stratification covers.
func (e *engine) charge() int64 {
	if e.shared {
		return int64(e.aliveCount)
	}
	return 1
}

// sampleFrom draws the next query of stratum h of stratification p, if
// the whole sample fits the call budget. The bool reports progress (a
// query was consumed — sampled or degraded); a non-nil error aborts the
// run.
func (e *engine) sampleFrom(p, h int) (bool, error) {
	s := e.parts[p][h]
	if s.exhausted() || e.opts.MaxCalls > 0 && e.o.Calls()+e.charge() > e.opts.MaxCalls {
		return false, nil
	}
	if err := e.evalFold([]slot{{p: p, h: h, q: s.order[s.next]}}); err != nil {
		return false, err
	}
	return true, nil
}

// evalFold costs each scheduled sample's query under the alive
// configurations of its stratification, all in one Eval batch, then folds
// the samples serially in schedule order — the only path from the oracle
// into sampling state, at every parallelism level. A skip request
// (ErrSkipQuery) on any slot degrades the sample's query, since a partial
// Delta row would corrupt the cross terms; any other error aborts.
func (e *engine) evalFold(sched []slot) error {
	pairs := e.pairs[:0]
	for _, sl := range sched {
		j0 := e.firstCfg(sl.p)
		for c := range e.parts[sl.p][sl.h].sums {
			if e.alive[j0+c] {
				pairs = append(pairs, Pair{Q: sl.q, J: j0 + c})
			}
		}
	}
	e.pairs, e.out, e.errs = pairs, grow(e.out, len(pairs)), grow(e.errs, len(pairs))
	Eval(e.o, pairs, e.out, e.errs, e.opts.Parallelism)
	n := int(e.charge())
	for i, sl := range sched {
		s := e.parts[sl.p][sl.h]
		s.next++
		costs := e.out[i*n : (i+1)*n]
		if err := rowErr(e.errs[i*n : (i+1)*n]); err != nil {
			if !errors.Is(err, ErrSkipQuery) {
				return err
			}
			e.dropQuery(s, sl.q)
			continue
		}
		if e.shared {
			// The row history keeps the row; eliminated configurations
			// read NaN.
			row := make([]float64, e.k)
			for j := range row {
				row[j] = math.NaN()
			}
			for c, pr := range pairs[i*n : (i+1)*n] {
				row[pr.J] = costs[c]
			}
			costs = row
		}
		e.fold(sl.p, sl.h, sl.q, costs)
	}
	return nil
}

// dropQuery removes a degraded query from its stratum: the population
// size (the stratum weight in every estimator) and the query's template
// weight (Algorithm 2's split statistics) both shrink by one.
func (e *engine) dropQuery(s *stratum, q int) {
	s.size--
	e.tmplDropped[e.tmplOf(q)]++
	e.degraded++
}

// fold records one sampled query of stratum h of stratification p, one
// cost per column. The fold is the only place sampling state mutates, and
// it always runs serially in schedule order — this is what keeps parallel
// and serial runs bit-identical.
func (e *engine) fold(p, h, q int, costs []float64) {
	s := e.parts[p][h]
	s.n++
	e.sampled++
	e.met.samples.Inc()
	e.last = p

	tmpl := e.tmplOf(q)
	cb := math.NaN()
	if e.shared {
		e.rows = append(e.rows, row{tmpl: tmpl, costs: costs})
		s.rowIdx = append(s.rowIdx, len(e.rows)-1)
		cb = costs[e.best]
	}
	j0 := e.firstCfg(p)
	for c, v := range costs {
		j := j0 + c
		if !e.alive[j] {
			continue
		}
		s.sums[c].Add(v)
		s.sumsqs[c].AddProduct(v, v)
		e.tCount[tmpl][j]++
		e.tSum[tmpl][j].Add(v)
		e.tSumsq[tmpl][j].AddProduct(v, v)
		if !math.IsNaN(cb) {
			s.cross[c].AddProduct(cb, v)
			e.tCross[tmpl][j].AddProduct(cb, v)
		}
	}
}

// estimate returns X_j = Σ_h |WL_h|·mean_h(j) for an alive configuration.
// Strata without samples fall back to the configuration's global sample
// mean — unbiased strata-wise coverage is exactly what fine stratification
// at small sample sizes lacks (Figure 2).
func (e *engine) estimate(j int) float64 {
	strata, c := e.parts[0], j
	if !e.shared {
		strata, c = e.parts[j], 0
	}
	var gSum stats.Kahan
	gN := 0
	for _, s := range strata {
		gSum.AddKahan(s.sums[c])
		gN += s.n
		if s.pN != nil {
			pe, f := priorEff(s.pN[c], s.n)
			gSum.AddKahan(s.pSum[c].Scaled(f))
			gN += pe
		}
	}
	gMean := 0.0
	if gN > 0 {
		gMean = gSum.Sum() / float64(gN)
	}
	var x float64
	for _, s := range strata {
		n := s.n
		sum := s.sums[c]
		if s.pN != nil {
			pe, f := priorEff(s.pN[c], s.n)
			n += pe
			sum.AddKahan(s.pSum[c].Scaled(f))
		}
		if n > 0 {
			x += float64(s.size) * (sum.Sum() / float64(n))
		} else {
			x += float64(s.size) * gMean
		}
	}
	return x
}

// prCS computes the multi-way probability of correct selection via the
// Bonferroni bound (Equation 3), folding in the frozen penalty of
// eliminated configurations.
func (e *engine) prCS() (float64, []float64) {
	xb := e.estimate(e.best)
	e.est.pairVars(e.varBuf)
	pair := e.pairBuf
	clear(pair)
	p := 1 - e.elimPen
	for j := 0; j < e.k; j++ {
		if j == e.best || !e.alive[j] {
			continue
		}
		gap := e.estimate(j) - xb
		se := math.Sqrt(math.Max(e.varBuf[j], 0))
		pij := stats.PairwisePrCS(gap, e.opts.Delta, se)
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

// worstRival is the alive configuration with the lowest pairwise Pr(CS)
// versus the incumbent, or -1.
func (e *engine) worstRival() int {
	_, pair := e.prCS()
	worst, worstP := -1, 2.0
	for j := 0; j < e.k; j++ {
		if j != e.best && e.alive[j] && pair[j] < worstP {
			worst, worstP = j, pair[j]
		}
	}
	return worst
}

// chooseBest re-selects the configuration with the smallest estimate.
func (e *engine) chooseBest() {
	best := -1
	var bx float64
	for j := 0; j < e.k; j++ {
		if !e.alive[j] {
			continue
		}
		if x := e.estimate(j); best < 0 || x < bx {
			best, bx = j, x
		}
	}
	if best == e.best || best < 0 {
		return
	}
	e.best = best
	e.est.bestChanged()
}

// eliminate drops configurations whose pairwise Pr(CS) exceeds the
// threshold (Section 5's large-k optimization). Elimination is
// irreversible, so it is deferred until the estimates rest on at least
// twice the pilot sample of every stratification — a pilot-only fluke in
// a heavy-tailed cost distribution must not evict the true best
// configuration.
func (e *engine) eliminate(pair []float64) {
	th := e.opts.EliminationThreshold
	if th <= 0 || e.sampled < 2*e.opts.NMin*len(e.parts) {
		return
	}
	for j := 0; j < e.k; j++ {
		if j == e.best || !e.alive[j] || !(pair[j] > th) {
			continue
		}
		e.alive[j] = false
		e.aliveCount--
		e.elimPen += 1 - pair[j]
		e.met.eliminations.Inc()
		if tr := e.opts.Tracer; tr.Enabled() {
			tr.Emit("eliminate",
				obs.KV{Key: "config", Value: j},
				obs.KV{Key: "pair_prcs", Value: pair[j]},
				obs.KV{Key: "alive", Value: e.aliveCount})
		}
	}
}

// next picks the (stratification, stratum) of the next sample: Section
// 5.2's allocation, or with EqualAlloc the fewest-sampled stratum.
func (e *engine) next() (int, int) {
	if e.opts.Strat != EqualAlloc {
		return e.est.neyman()
	}
	return e.fewestSampled()
}

// fewestSampled is the unexhausted alive stratum with the fewest samples,
// or (-1, -1) once every alive stratum is exhausted.
func (e *engine) fewestSampled() (int, int) {
	bestP, bestH, bestN := -1, -1, 0
	for p, strata := range e.parts {
		if !e.partAlive(p) {
			continue
		}
		for h, s := range strata {
			if !s.exhausted() && (bestP < 0 || s.n < bestN) {
				bestP, bestH, bestN = p, h, s.n
			}
		}
	}
	return bestP, bestH
}

// maybeSplit runs Algorithm 2 when progressive stratification is enabled.
func (e *engine) maybeSplit() error {
	if e.opts.Strat != Progressive {
		return nil
	}
	p, targetVar, ok := e.est.splitTarget()
	if !ok {
		return nil
	}
	strata := e.parts[p]
	sc := &e.split
	sc.cur = grow(sc.cur, len(strata))
	sc.tstats = grow(sc.tstats, len(strata))
	// The strata partition the templates, so a buffer of one entry per
	// template never reallocates and tstats may alias it directly.
	sc.tbuf = grow(sc.tbuf, len(e.tSum))[:0]
	for h, s := range strata {
		start := len(sc.tbuf)
		s2, buf, ok := e.est.splitStats(sc.tbuf, p, s)
		sc.cur[h] = stats.Stratum{Size: s.size, S2: s2, Taken: s.n}
		sc.tbuf, sc.tstats[h] = buf, nil
		if ok {
			sc.tstats[h] = buf[start:]
		}
	}
	var sw obs.Stopwatch
	if e.opts.Metrics != nil {
		sw = obs.NewStopwatch()
	}
	dec, evals, ok := findBestSplit(sc, sc.cur, sc.tstats, targetVar, e.opts.NMin)
	if e.opts.Metrics != nil {
		e.met.splitSearch.Observe(sw.Elapsed().Seconds())
	}
	e.met.splitEvals.Add(int64(evals))
	if !ok {
		return nil
	}
	return e.applySplit(p, dec)
}

// applySplit replaces a stratum of stratification p with the two children
// of a split decision and tops each child up to n_min samples (Algorithm
// 1, line 8).
func (e *engine) applySplit(p int, dec splitDecision) error {
	// dec.left aliases the split scratch; copy before retaining it as the
	// child stratum's template list.
	left := append([]int(nil), dec.left...)
	parent := e.parts[p][dec.stratum]
	inLeft := make(map[int]bool, len(left))
	for _, t := range left {
		inLeft[t] = true
	}
	var right []int
	for _, t := range parent.templates {
		if !inLeft[t] {
			right = append(right, t)
		}
	}
	lc, rc := e.est.children(p, dec.stratum, left, right, inLeft)
	if parent.pN != nil {
		// A warm stratum's children keep the prior moments of their own
		// member templates.
		e.seedPrior(p, lc)
		e.seedPrior(p, rc)
	}
	e.splits++
	e.met.splits.Inc()
	if tr := e.opts.Tracer; tr.Enabled() {
		at := obs.KV{Key: "stratum", Value: dec.stratum}
		if !e.shared {
			at = obs.KV{Key: "config", Value: p}
		}
		tr.Emit("split", at,
			obs.KV{Key: "left_templates", Value: len(lc.templates)},
			obs.KV{Key: "right_templates", Value: len(rc.templates)},
			obs.KV{Key: "left_size", Value: lc.size},
			obs.KV{Key: "right_size", Value: rc.size},
			obs.KV{Key: "strata", Value: len(e.parts[p])})
	}
	for _, child := range []*stratum{lc, rc} {
		h := slices.Index(e.parts[p], child)
		// The bound re-clamps every iteration: a degraded query shrinks
		// child.size.
		for child.n < min(e.opts.NMin, child.size) {
			progress, err := e.sampleFrom(p, h)
			if err != nil {
				return err
			}
			if !progress {
				break
			}
		}
	}
	e.chooseBest()
	return nil
}

// pilot runs the pilot phase: n_min samples per stratum (the warm pilot
// for reused strata), clamped to stratum size and the call budget, filled
// round-robin in a shuffled order (Delta shuffles its strata, Independent
// its configurations) so a budget-truncated pilot covers a random subset
// of every stratum instead of completing some and leaving others
// untouched, which would bias the estimator across Monte-Carlo runs. It is
// one schedule at every parallelism level: planned without touching the
// oracle (a sample charges one call per configuration of its
// stratification), evaluated as one Eval batch and folded serially in
// schedule order. A skipped probe degrades its query and is not replaced.
func (e *engine) pilot() error {
	var pass []slot
	if e.shared {
		for _, h := range e.opts.RNG.Perm(len(e.parts[0])) {
			pass = append(pass, slot{p: 0, h: h})
		}
	} else {
		for _, j := range e.opts.RNG.Perm(e.k) {
			for h := range e.parts[j] {
				pass = append(pass, slot{p: j, h: h})
			}
		}
	}
	var sched []slot
	taken := make([]int, len(pass))
	calls, charge := e.o.Calls(), e.charge()
outer:
	for progress := true; progress; {
		progress = false
		for i, sl := range pass {
			s := e.parts[sl.p][sl.h]
			if taken[i] >= min(s.pilotN, s.size) {
				continue
			}
			if e.opts.MaxCalls > 0 && calls+charge > e.opts.MaxCalls {
				break outer // the budget only shrinks: no later sample fits either
			}
			sched = append(sched, slot{p: sl.p, h: sl.h, q: s.order[taken[i]]})
			taken[i]++
			calls += charge
			progress = true
		}
	}
	if err := e.opts.ctxErr(); err != nil {
		return err
	}
	return e.evalFold(sched)
}

// run executes Algorithm 1 and returns the result.
func (e *engine) run() (*Result, error) {
	tr := e.opts.Tracer
	if err := e.pilot(); err != nil {
		return nil, err
	}
	e.checkPriorDrift()
	e.chooseBest()
	if tr.Enabled() {
		kv := []obs.KV{{Key: "samples", Value: e.sampled}, {Key: "calls", Value: e.o.Calls()}}
		if e.shared {
			kv = append(kv, obs.KV{Key: "strata", Value: len(e.parts[0])})
		}
		tr.Emit("pilot.done", kv...)
	}

	round, stable := 0, 0
	pcs, pair := e.prCS()
	for {
		round++
		e.met.rounds.Inc()
		var sw obs.Stopwatch
		if e.met.roundSeconds != nil {
			sw = obs.NewStopwatch()
		}
		if err := e.opts.ctxErr(); err != nil {
			return nil, err
		}
		if tr.Enabled() {
			kv := []obs.KV{{Key: "round", Value: round}, {Key: "samples", Value: e.sampled},
				{Key: "calls", Value: e.o.Calls()}, {Key: "prcs", Value: pcs},
				{Key: "best", Value: e.best}, {Key: "alive", Value: e.aliveCount}}
			if e.shared {
				kv = append(kv, obs.KV{Key: "strata", Value: len(e.parts[0])}, obs.KV{Key: "splits", Value: e.splits})
			}
			tr.Emit("round", append(kv, obs.KV{Key: "stable", Value: stable})...)
		}
		if e.opts.TracePrCS {
			e.trace = append(e.trace, pcs)
		}
		if e.opts.MaxCalls <= 0 {
			if pcs > e.opts.Alpha && e.sampled >= e.opts.MinSamples {
				stable++
				if stable >= e.opts.StabilityWindow {
					break
				}
			} else {
				stable = 0
			}
		}
		e.eliminate(pair)
		if err := e.maybeSplit(); err != nil {
			return nil, err
		}
		p, h := e.next()
		if p < 0 {
			break // exhausted workload
		}
		progress, err := e.sampleFrom(p, h)
		if err != nil {
			return nil, err
		}
		if !progress {
			break // exhausted workload or budget
		}
		if tr.Enabled() {
			s := e.parts[p][h]
			kv := []obs.KV{{Key: "stratum", Value: h}, {Key: "stratum_n", Value: s.n}, {Key: "stratum_size", Value: s.size}}
			if !e.shared {
				kv = append([]obs.KV{{Key: "config", Value: p}}, kv...)
			}
			tr.Emit("alloc", kv...)
		}
		e.checkPriorDrift()
		e.chooseBest()
		pcs, pair = e.prCS()
		if e.met.roundSeconds != nil {
			e.met.roundSeconds.Observe(sw.Elapsed().Seconds())
		}
	}

	if p, _ := e.fewestSampled(); p < 0 && e.degraded == 0 {
		pcs = 1 // full census: the selection is exact
	}
	res := &Result{
		Best:            e.best,
		PrCS:            pcs,
		SampledQueries:  e.sampled,
		OptimizerCalls:  e.o.Calls(),
		Eliminated:      make([]bool, e.k),
		Splits:          e.splits,
		DegradedQueries: e.degraded,
		PrCSTrace:       e.trace,
		State:           e.captureState(),
		Warm:            e.winfo,
	}
	for j, a := range e.alive {
		res.Eliminated[j] = !a
	}
	for _, strata := range e.parts {
		res.Strata = max(res.Strata, len(strata))
	}
	return res, nil
}

// captureState snapshots the final stratifications for a later warm
// start: this run's fresh per-template tallies and moments per
// configuration (with Delta's cross sums relative to the final best),
// plus each stratification's partition as template-ID groups. Only fresh
// samples are captured — a warm run's inherited prior never compounds
// across chained snapshots, so staleness is bounded by one generation.
func (e *engine) captureState() *StratState {
	tc := e.opts.TemplateCount
	if !e.opts.CaptureState || tc <= 0 ||
		len(e.opts.TemplateSigs) != tc || len(e.opts.ConfigFingerprints) != e.k {
		return nil
	}
	st := &StratState{
		Version:        stratStateVersion,
		Scheme:         e.scheme.String(),
		Strat:          e.opts.Strat.String(),
		K:              e.k,
		Configs:        append([]string(nil), e.opts.ConfigFingerprints...),
		Best:           e.best,
		SampledQueries: e.sampled,
		Partitions:     make([][][]uint64, len(e.parts)),
	}
	for t := 0; t < tc; t++ {
		if e.pop.templateSize(t) == 0 {
			continue
		}
		ts := TemplateState{
			ID:     e.opts.TemplateSigs[t].ID,
			Params: append([]ParamMoment(nil), e.opts.TemplateSigs[t].Params...),
			Counts: append([]int(nil), e.tCount[t]...),
			Sum:    append([]stats.Kahan(nil), e.tSum[t]...),
			Sumsq:  append([]stats.Kahan(nil), e.tSumsq[t]...),
		}
		if e.tCross != nil {
			ts.Cross = append([]stats.Kahan(nil), e.tCross[t]...)
		}
		st.Templates = append(st.Templates, ts)
	}
	for p, strata := range e.parts {
		groups := make([][]uint64, 0, len(strata))
		for _, s := range strata {
			g := make([]uint64, len(s.templates))
			for i, t := range s.templates {
				g[i] = e.opts.TemplateSigs[t].ID
			}
			groups = append(groups, g)
		}
		st.Partitions[p] = groups
	}
	return st
}

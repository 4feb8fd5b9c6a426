package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"physdes/internal/catalog"
	"physdes/internal/core"
	"physdes/internal/obs"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sampling"
	"physdes/internal/sqlparse"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// spaceSeed fixes the TPC-D configuration space across benchmark seeds:
// it is the space `physdes select -seed 1` builds (space seed = seed+1),
// drawn over candidates that every 13,000-statement TPC-D workload
// yields. The benchmark seed varies the statements and the selection
// seeds.
const spaceSeed = 2

// spaceOptions are the structure counts `physdes select` and physdesd use.
var spaceOptions = physical.SpaceOptions{MinStructures: 3, MaxStructures: 10}

// deriveSeeds draws the run's workload seed and n operation seeds from
// the benchmark seed.
func deriveSeeds(seed uint64, n int) (wseed uint64, seeds []uint64) {
	rng := stats.NewRNG(seed)
	wseed = rng.Uint64()
	seeds = make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	return wseed, seeds
}

// setupTimes are the set-up phases of one run, one entry per repetition.
type setupTimes struct {
	total, generate, enumerate, space, upload []float64 // wall seconds
	cpu                                       []float64 // CPU seconds of the whole set-up
}

// libEnv is what one set-up of a library run builds: the inputs every
// selection of the run shares.
type libEnv struct {
	cat     *catalog.Catalog
	w       *workload.Workload
	configs []*physical.Configuration
}

// setupLibrary builds the TPC-D catalog, generates (parses, analyzes and
// templates) the workload, enumerates candidate structures and draws the
// configuration space, timing each phase into st.
func setupLibrary(n, k int, wseed uint64, st *setupTimes) (*libEnv, error) {
	t0, c0 := time.Now(), cpuTime()
	cat := catalog.TPCD(1)
	w, err := workload.GenTPCD(cat, n, wseed)
	if err != nil {
		return nil, fmt.Errorf("generate workload: %w", err)
	}
	t1 := time.Now()
	cands := physical.EnumerateCandidates(cat, analyses(w), physical.CandidateOptions{Covering: true, Views: true})
	t2 := time.Now()
	configs := physical.GenerateSpace(cat, cands, k, stats.NewRNG(spaceSeed), spaceOptions)
	t3 := time.Now()
	if len(configs) < 2 {
		return nil, fmt.Errorf("only %d configurations generated for k=%d", len(configs), k)
	}
	st.cpu = append(st.cpu, (cpuTime() - c0).Seconds())
	st.total = append(st.total, t3.Sub(t0).Seconds())
	st.generate = append(st.generate, t1.Sub(t0).Seconds())
	st.enumerate = append(st.enumerate, t2.Sub(t1).Seconds())
	st.space = append(st.space, t3.Sub(t2).Seconds())
	return &libEnv{cat: cat, w: w, configs: configs}, nil
}

func analyses(w *workload.Workload) []*sqlparse.Analysis {
	out := make([]*sqlparse.Analysis, len(w.Queries))
	for i, q := range w.Queries {
		out[i] = q.Analysis
	}
	return out
}

// selectOptions are the library workloads' options: the Section 7.2
// protocol at the default parallelism, conservative (ρ=1) on request.
func selectOptions(seed uint64, conservative bool) core.Options {
	o := core.DefaultOptions(seed)
	o.Conservative = conservative
	return o
}

// fingerprint is what the output checks compare between two runs of one
// seed.
func fingerprint(sel *core.Selection) string {
	if sel == nil {
		return "<failed>"
	}
	return fmt.Sprintf("best=%s/%d prcs=%v calls=%d sampled=%d eliminated=%v strata=%d splits=%d",
		sel.Best.Name(), sel.BestIndex, sel.PrCS, sel.OptimizerCalls, sel.SampledQueries,
		sel.Eliminated, sel.Strata, sel.Splits)
}

// groundTruth evaluates every (statement, configuration) pair and
// returns the matrix and the configurations' total costs.
func groundTruth(cat *catalog.Catalog, w *workload.Workload, configs []*physical.Configuration) (*workload.CostMatrix, []float64, float64) {
	m := workload.ComputeCostMatrix(optimizer.New(cat), w, configs)
	totals := make([]float64, m.K())
	for j := range totals {
		totals[j] = m.TotalCost(j)
	}
	_, best := m.BestConfig()
	return m, totals, best
}

// verifySerial re-runs each seed at Parallelism 1 and returns the
// fingerprints, one per seed, plus the serial selections. The re-runs
// are untimed, so they run side by side, one per CPU.
func verifySerial(env *libEnv, seeds []uint64, conservative bool) ([]string, []*core.Selection) {
	fps := make([]string, len(seeds))
	sels := make([]*core.Selection, len(seeds))
	forEach(len(seeds), runtime.GOMAXPROCS(0), func(i int) {
		o := selectOptions(seeds[i], conservative)
		o.Parallelism = 1
		if sel, err := core.Select(optimizer.New(env.cat), env.w, env.configs, o); err == nil {
			sels[i] = sel
		}
		fps[i] = fingerprint(sels[i])
	})
	return fps, sels
}

// forEach calls f(0) … f(n-1) on up to workers goroutines and returns
// once every call has.
func forEach(n, workers int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// endToEnd is what one untraced run measured.
type endToEnd struct {
	setup   *setupTimes
	lat     []float64 // wall milliseconds per timed operation
	cpuMS   float64   // CPU milliseconds of a typical operation
	wallS   float64   // timed wall time
	calls   []float64 // OptimizerCalls per distinct seed
	checked int       // distinct seeds checked against the exhaustive optimum
	correct int       // checked seeds whose pick is within δ of it
	heapMB  float64   // peak heap over the first pass
}

// addTo adds the end-to-end metrics BENCHMARK.json lists, then the wall
// clock and the other end-to-end figures, which the table shows but the
// result object leaves out (README.md says why).
func (e endToEnd) addTo(rep *report) {
	rep.add("setup_s", median(e.setup.cpu), "s", len(e.setup.cpu))
	rep.add("cpu_ms_per_op", e.cpuMS, "ms", len(e.lat))
	rep.add("correct_share", float64(e.correct)/float64(e.checked), "ratio", e.checked)
	rep.addInfo("setup_wall_s", median(e.setup.total), "s", len(e.setup.total))
	rep.addInfo("latency_p50_ms", median(e.lat), "ms", len(e.lat))
	if len(e.lat) >= 100 {
		rep.addInfo("latency_p90_ms", quantile(e.lat, 0.9), "ms", len(e.lat))
	}
	rep.addInfo("throughput_per_s", float64(len(e.lat))/e.wallS, "1/s", len(e.lat))
	rep.addInfo("optimizer_calls", mean(e.calls), "count", len(e.calls))
	rep.addInfo("failed_share", float64(rep.Failed)/float64(rep.Attempted), "ratio", rep.Attempted)
	rep.addInfo("heap_peak_mb", e.heapMB, "MiB", 0)
}

// runLibrary runs tpcd-13k or tpcd-13k-conservative: library Select, one
// selection at a time, cycling through the run's selection seeds.
func runLibrary(cfg config, conservative bool) (*report, error) {
	sc := cfg.Scale
	nSeeds := sc.SelectSeeds
	if conservative {
		nSeeds = sc.ConsSeeds
	}
	wseed, seeds := deriveSeeds(cfg.Seed, nSeeds)
	var st setupTimes
	var env *libEnv
	for r := 0; r < sc.SetupReps; r++ {
		var err error
		if env, err = setupLibrary(sc.TPCDStatements, sc.K, wseed, &st); err != nil {
			return nil, err
		}
	}
	if cfg.Trace {
		return traceLibrary(cfg, env, seeds, conservative, &st)
	}

	rep := &report{}
	e := endToEnd{setup: &st}
	var opFP []string
	var cpu []float64
	runtime.GC()
	heap := startHeapMonitor()
	start := time.Now()
	// Whole passes over the seeds, so every run of a seed weighs the same.
	// The heap peak is taken over the first pass, a fixed amount of work.
	for pass := 0; pass == 0 || time.Since(start).Seconds() < cfg.Seconds; pass++ {
		for _, s := range seeds {
			o := selectOptions(s, conservative)
			t, c := time.Now(), cpuTime()
			sel, err := core.Select(optimizer.New(env.cat), env.w, env.configs, o)
			e.lat = append(e.lat, float64(time.Since(t).Nanoseconds())/1e6)
			cpu = append(cpu, float64((cpuTime()-c).Nanoseconds())/1e6)
			rep.Attempted++
			if err != nil {
				rep.fail("selection seed %d: %v", s, err)
			}
			opFP = append(opFP, fingerprint(sel))
		}
		if pass == 0 {
			e.heapMB = heap.finish()
		}
	}
	e.wallS = time.Since(start).Seconds()
	// Selections run one at a time, so the process's CPU time during one
	// is that selection's; the median is the typical selection's.
	e.cpuMS = median(cpu)

	// Output checks: every selection must equal its seed's serial re-run.
	serialFP, serial := verifySerial(env, seeds, conservative)
	for i, fp := range opFP {
		if want := serialFP[i%len(seeds)]; fp != want && fp != "<failed>" {
			rep.fail("selection seed %d: %s, at Parallelism 1: %s", seeds[i%len(seeds)], fp, want)
		}
	}

	_, totals, best := groundTruth(env.cat, env.w, env.configs)
	for i, sel := range serial {
		if sel == nil {
			rep.fail("selection seed %d: the re-run at Parallelism 1 failed", seeds[i])
			continue
		}
		e.calls = append(e.calls, float64(sel.OptimizerCalls))
		e.checked++
		if totals[sel.BestIndex] <= best+selectOptions(seeds[i], conservative).Delta {
			e.correct++
		}
	}
	e.addTo(rep)
	return rep, nil
}

// traceLibrary is the traced run of a library workload: an untraced pass
// and a traced pass over the same selections, then the replays that split
// the traced selections' time into layers.
func traceLibrary(cfg config, env *libEnv, seeds []uint64, conservative bool, st *setupTimes) (*report, error) {
	sc := cfg.Scale
	seeds = seeds[:min(sc.TracedOps, len(seeds))]
	rep := &report{}
	var ly layers
	ly.setup(st)
	var err error
	if ly.parseAnalyzeUS, ly.templateUS, err = sqlparseTimes(env.cat, env.w); err != nil {
		return nil, err
	}
	ly.stmts = env.w.Size()
	ly.whatifUS, ly.whatifAllocs = whatIfMicro(env.cat, env.w, env.configs, sc.WhatIfPairs, cfg.Seed)
	ly.whatifPairs = sc.WhatIfPairs

	// Untraced pass: the baseline for the tracing overhead and the Go
	// runtime figures.
	untracedFP := make([]string, len(seeds))
	runtime.GC()
	rc0 := readRuntime()
	var untraced []float64
	for i, s := range seeds {
		t := time.Now()
		sel, err := core.Select(optimizer.New(env.cat), env.w, env.configs, selectOptions(s, conservative))
		untraced = append(untraced, float64(time.Since(t).Nanoseconds())/1e6)
		rep.Attempted++
		if err != nil {
			rep.fail("selection seed %d: %v", s, err)
		}
		untracedFP[i] = fingerprint(sel)
	}
	ly.rc0, ly.rc1, ly.goOps = rc0, readRuntime(), len(seeds)

	// Traced pass: every oracle call is a span under its selection's span,
	// and the program's own counters go to a registry.
	log := newSpanLog()
	root := log.open(spanRun, -1)
	reg := obs.NewRegistry()
	selSpans := make([]int, len(seeds))
	tracedSel := make([]*core.Selection, len(seeds))
	var traced []float64
	for i, s := range seeds {
		o := selectOptions(s, conservative)
		o.Metrics = reg
		sid := log.open(spanSelect, root)
		var tor *timedOracle
		o.WrapOracle = func(in sampling.Oracle) sampling.Oracle {
			tor = newTimedOracle(in, log, sid, -1)
			return tor
		}
		sel, err := core.Select(optimizer.New(env.cat), env.w, env.configs, o)
		traced = append(traced, float64(log.close(sid))/1e6)
		selSpans[i] = sid
		rep.Attempted++
		if err != nil {
			rep.fail("traced selection seed %d: %v", s, err)
			continue
		}
		tracedSel[i] = sel
		ly.oracle.addAll(tor.stats())
		ly.calls += sel.OptimizerCalls
		ly.strata += sel.Strata
	}
	ly.ops = len(seeds)
	ly.reg = readCounters(reg)

	// Output checks: untraced, traced and serial runs of a seed agree.
	serialFP, _ := verifySerial(env, seeds, conservative)
	for i, s := range seeds {
		if untracedFP[i] != serialFP[i] || fingerprint(tracedSel[i]) != serialFP[i] {
			rep.fail("selection seed %d: untraced %s, traced %s, at Parallelism 1 %s",
				s, untracedFP[i], fingerprint(tracedSel[i]), serialFP[i])
		}
	}

	// Replays: the sampler alone over the ground-truth matrix, and the
	// Section 6 bounds on the inputs core derives them from.
	m, _, _ := groundTruth(env.cat, env.w, env.configs)
	if conservative {
		br, err := replayBounds(log, root, env.cat, env.w, env.configs, selectOptions(seeds[0], true))
		if err != nil {
			return nil, err
		}
		ly.bounds = br
		for i, sel := range tracedSel {
			if sel != nil && (sel.VarianceBound != br.varianceBound || sel.CLTMinSamples != br.cltMin) {
				rep.fail("bounds replay: variance bound %v, CLT minimum %d; selection seed %d: %v, %d",
					br.varianceBound, br.cltMin, seeds[i], sel.VarianceBound, sel.CLTMinSamples)
			}
		}
	}
	for i, sel := range tracedSel {
		if sel == nil {
			continue
		}
		o := selectOptions(seeds[i], conservative)
		so := samplerOptions(o, env.w)
		if ly.bounds != nil {
			so = ly.bounds.withBounds(so)
		}
		ms, err := replaySampler(log, root, m, so, sel)
		ly.samplerMS += ms
		if err != nil {
			rep.fail("selection seed %d: %v", seeds[i], err)
		}
	}
	log.close(root)

	self := log.selfTimes()
	var selfNS int64
	for _, id := range selSpans {
		selfNS += self[id]
	}
	ly.wallMS = sum(traced)
	ly.residualMS = float64(selfNS)/1e6 - ly.samplerMS - ly.bounds.totalMS()*float64(len(seeds))
	ly.untracedMS, ly.tracedMS = mean(untraced), mean(traced)
	if err := log.write(spansPath(cfg)); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	ly.emit(rep)
	return rep, nil
}

func spansPath(cfg config) string {
	return filepath.Join(cfg.SpansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

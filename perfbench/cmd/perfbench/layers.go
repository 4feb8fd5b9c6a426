package main

import (
	"physdes/internal/obs"
)

// layers collects a traced run's per-layer figures. Sums run over the
// traced operations (selections, or serve jobs); emit turns them into
// per-operation means and shares.
type layers struct {
	// sqlparse, over every statement of the workload.
	parseAnalyzeUS, templateUS float64
	stmts                      int
	// workload and physical set-up phases, medians over the set-ups.
	generateS, enumerateS, spaceMS float64
	setupReps                      int
	// Direct what-if calls.
	whatifUS, whatifAllocs float64
	whatifPairs            int

	ops    int     // traced operations
	wallMS float64 // their summed wall time
	oracle oracleStats
	calls  int64 // summed OptimizerCalls
	strata int

	reg counters // the program's own counters over the traced operations

	samplerMS  float64       // summed sampler replays
	bounds     *boundsReplay // nil when the workload runs no bounds
	residualMS float64       // summed traced time no layer accounts for

	// serve only.
	submitMS   float64 // summed job submission round trips
	submits    int
	uploadS    float64 // median workload upload
	overheadMS float64 // mean job latency minus in-process replay

	untracedMS, tracedMS float64 // mean operation latency without / with tracing
	rc0, rc1             runtimeCounters
	goOps                int
}

// setup takes the medians of the set-up phases.
func (ly *layers) setup(st *setupTimes) {
	ly.generateS = median(st.generate)
	ly.enumerateS = median(st.enumerate)
	ly.spaceMS = median(st.space) * 1e3
	ly.uploadS = median(st.upload)
	ly.setupReps = len(st.total)
}

// counters are the registry totals the per-layer metrics read.
type counters struct {
	// atoms counts the distinct (statement, atom) pairs costed: the memo's
	// misses.
	atomHits, atoms, samples, rounds, splits, splitEvals, retries, faults int64
	splitSearchS                                                          float64
}

func readCounters(reg *obs.Registry) counters {
	return counters{
		atomHits:     reg.Counter("optimizer_atom_hits_total").Value(),
		atoms:        reg.Counter("optimizer_atoms_total").Value(),
		samples:      reg.Counter("sampling_samples_total").Value(),
		rounds:       reg.Counter("sampling_rounds_total").Value(),
		splits:       reg.Counter("sampling_splits_total").Value(),
		splitEvals:   reg.Counter("sampling_split_evals_total").Value(),
		retries:      reg.Counter("oracle_retries_total").Value(),
		faults:       reg.Counter("oracle_faults_total").Value(),
		splitSearchS: reg.Histogram("sampling_split_search_seconds").Sum(),
	}
}

// since is c minus an earlier reading.
func (c counters) since(b counters) counters {
	return counters{
		atomHits:     c.atomHits - b.atomHits,
		atoms:        c.atoms - b.atoms,
		samples:      c.samples - b.samples,
		rounds:       c.rounds - b.rounds,
		splits:       c.splits - b.splits,
		splitEvals:   c.splitEvals - b.splitEvals,
		retries:      c.retries - b.retries,
		faults:       c.faults - b.faults,
		splitSearchS: c.splitSearchS - b.splitSearchS,
	}
}

func (b *boundsReplay) totalMS() float64 {
	if b == nil {
		return 0
	}
	return b.deriveMS + b.sigmaMaxMS + b.cltMS
}

// emit adds every per-layer metric, in the order BENCHMARK.json lists
// them.
func (ly *layers) emit(rep *report) {
	ops := float64(ly.ops)
	per := func(x float64) float64 { return ratio(x, ops) }
	rep.add("sqlparse.parse_analyze_us", ly.parseAnalyzeUS, "us", ly.stmts)
	rep.add("sqlparse.template_us", ly.templateUS, "us", ly.stmts)
	rep.add("workload.generate_s", ly.generateS, "s", ly.setupReps)
	rep.add("physical.enumerate_s", ly.enumerateS, "s", ly.setupReps)
	rep.add("physical.space_ms", ly.spaceMS, "ms", ly.setupReps)
	rep.add("optimizer.whatif_us", ly.whatifUS, "us", ly.whatifPairs)
	rep.add("optimizer.whatif_allocs", ly.whatifAllocs, "count", ly.whatifPairs)

	busyMS := float64(ly.oracle.busy) / 1e6
	rep.add("optimizer.calls", per(float64(ly.calls)), "count", ly.ops)
	rep.add("optimizer.oracle_busy_ms", per(busyMS), "ms", ly.ops)
	rep.add("optimizer.oracle_share", ratio(busyMS, ly.wallMS), "ratio", 0)
	rep.add("optimizer.pairs", per(float64(ly.oracle.pairs)), "count", ly.ops)
	rep.add("optimizer.pair_hit_ratio", 1-ratio(float64(ly.oracle.calls), float64(ly.oracle.pairs)), "ratio", 0)
	rep.add("optimizer.atom_hit_ratio", ratio(float64(ly.reg.atomHits), float64(ly.reg.atomHits+ly.reg.atoms)), "ratio", 0)
	rep.add("optimizer.batch_pairs_mean", ratio(float64(ly.oracle.pairs), float64(ly.oracle.entries)), "count", int(ly.oracle.entries))

	rep.add("sampling.self_ms", per(ly.samplerMS), "ms", ly.ops)
	rep.add("sampling.self_share", ratio(ly.samplerMS, ly.wallMS), "ratio", 0)
	rep.add("sampling.samples", per(float64(ly.reg.samples)), "count", ly.ops)
	rep.add("sampling.rounds", per(float64(ly.reg.rounds)), "count", ly.ops)
	rep.add("sampling.strata", per(float64(ly.strata)), "count", ly.ops)
	rep.add("sampling.splits", per(float64(ly.reg.splits)), "count", ly.ops)
	rep.add("sampling.split_search_ms", per(ly.reg.splitSearchS*1e3), "ms", ly.ops)
	rep.add("sampling.split_evals", per(float64(ly.reg.splitEvals)), "count", ly.ops)

	var b boundsReplay
	if ly.bounds != nil {
		b = *ly.bounds
	}
	rep.add("bounds.derive_ms", b.deriveMS, "ms", 0)
	rep.add("bounds.derive_calls", float64(b.deriveCalls), "count", 0)
	rep.add("bounds.sigma_max_ms", b.sigmaMaxMS, "ms", 0)
	rep.add("bounds.clt_min_samples_ms", b.cltMS, "ms", 0)

	rep.add("resilience.retries", float64(ly.reg.retries), "count", ly.ops)
	rep.add("resilience.faults", float64(ly.reg.faults), "count", ly.ops)
	rep.add("serve.submit_ms", ratio(ly.submitMS, float64(ly.submits)), "ms", ly.submits)
	rep.add("serve.upload_s", ly.uploadS, "s", ly.setupReps)
	rep.add("serve.overhead_ms", ly.overheadMS, "ms", ly.ops)

	rep.add("core.residual_share", ratio(ly.residualMS, ly.wallMS), "ratio", 0)
	rep.add("obs.trace_overhead_share", ratio(ly.tracedMS, ly.untracedMS)-1, "ratio", 0)
	addGoMetrics(rep, ly.rc0, ly.rc1, ly.goOps)
}

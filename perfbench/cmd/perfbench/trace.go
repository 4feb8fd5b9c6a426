package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"physdes/internal/bounds"
	"physdes/internal/catalog"
	"physdes/internal/core"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sampling"
	"physdes/internal/sqlparse"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// spanName names a span: a boundary this package times around a call
// into one layer of the program.
type spanName uint8

const (
	spanRun spanName = iota
	spanSelect
	spanJob
	spanSubmit
	spanOracle
	spanSampler
	spanBoundsRoot
	spanDerive
	spanSigmaMax
	spanCLTMin
)

var spanNames = [...]string{
	spanRun:        "run",
	spanSelect:     "core.select",
	spanJob:        "serve.job",
	spanSubmit:     "serve.submit",
	spanOracle:     "optimizer.oracle",
	spanSampler:    "sampling.replay",
	spanBoundsRoot: "bounds.replay",
	spanDerive:     "bounds.derive",
	spanSigmaMax:   "bounds.sigma_max",
	spanCLTMin:     "bounds.clt_min_samples",
}

// span is one timed interval. It holds no pointers, so a log of a
// million oracle calls costs the garbage collector nothing to scan.
type span struct {
	start, end int64 // nanoseconds since the log started; end -1 while open
	parent     int32 // index of the enclosing span, -1 for a root
	// tag names the serve job an oracle span belongs to (-1: none). The
	// daemon starts a job before its client has the job's id, so those
	// spans get their parent once the run is over (attachTagged).
	tag  int32
	name spanName
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// now is the log's clock.
func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

// add records a span and returns its index.
func (l *spanLog) add(s span) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// open records a span whose end is set later by close.
func (l *spanLog) open(name spanName, parent int) int {
	return l.add(span{name: name, parent: int32(parent), tag: -1, start: l.now(), end: -1})
}

// close ends span id and returns its duration.
func (l *spanLog) close(id int) int64 {
	end := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id].end = end
	return end - l.spans[id].start
}

// attachTagged gives every root span tagged t the parent parents[t].
func (l *spanLog) attachTagged(parents map[int32]int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.spans {
		if p, ok := parents[l.spans[i].tag]; ok && l.spans[i].parent < 0 {
			l.spans[i].parent = int32(p)
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once).
func (l *spanLog) selfTimes() []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make([][]int, len(l.spans))
	for i, s := range l.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(l.spans))
	for i, s := range l.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return l.spans[kids[a]].start < l.spans[kids[b]].start })
		covered := int64(0)
		curS, curE := int64(0), int64(-1)
		for _, k := range kids {
			cs, ce := max(l.spans[k].start, s.start), min(l.spans[k].end, s.end)
			if ce <= cs {
				continue
			}
			if cs > curE {
				covered += max(curE-curS, 0)
				curS, curE = cs, ce
			} else if ce > curE {
				curE = ce
			}
		}
		covered += max(curE-curS, 0)
		self[i] = s.end - s.start - covered
	}
	return self
}

// spanLine is one line of the spans file. Oracle calls are written as
// one line per parent span: Count calls, Busy nanoseconds in them, from
// the first call's start to the last call's end.
type spanLine struct {
	ID     int    `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Count  int    `json:"count,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

// write stores the spans as JSON lines, with self times.
func (l *spanLog) write(path string) error {
	self := l.selfTimes()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	var lines []spanLine
	oracle := map[int32]int{} // parent -> index in lines
	for i, s := range l.spans {
		if s.name != spanOracle {
			lines = append(lines, spanLine{ID: i, Parent: s.parent, Name: spanNames[s.name], Start: s.start, End: s.end, Self: self[i]})
			continue
		}
		j, ok := oracle[s.parent]
		if !ok {
			j = len(lines)
			oracle[s.parent] = j
			lines = append(lines, spanLine{ID: i, Parent: s.parent, Name: spanNames[s.name], Start: s.start})
		}
		ln := &lines[j]
		ln.Count++
		ln.Busy += s.end - s.start
		ln.Self += self[i]
		ln.Start, ln.End = min(ln.Start, s.start), max(ln.End, s.end)
	}
	l.mu.Unlock()
	for _, ln := range lines {
		if err = enc.Encode(ln); err != nil {
			break
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// timedOracle decorates a selection's oracle: every Cost and BatchCost
// call becomes an optimizer.oracle span, and the pairs requested and the
// optimizer calls they were charged are counted. BatchCost is forwarded
// as a batch, so the decorator leaves the batch path as it was.
type timedOracle struct {
	inner  sampling.Oracle
	log    *spanLog
	parent int32
	tag    int32

	busy, entries, pairs, calls atomic.Int64
}

func newTimedOracle(inner sampling.Oracle, log *spanLog, parent int, tag int32) *timedOracle {
	return &timedOracle{inner: inner, log: log, parent: int32(parent), tag: tag}
}

func (t *timedOracle) observe(start int64, calls0 int64, pairs int) {
	end := t.log.now()
	t.log.add(span{name: spanOracle, parent: t.parent, tag: t.tag, start: start, end: end})
	t.busy.Add(end - start)
	t.entries.Add(1)
	t.pairs.Add(int64(pairs))
	t.calls.Add(t.inner.Calls() - calls0)
}

func (t *timedOracle) Cost(i, j int) float64 {
	c0, s := t.inner.Calls(), t.log.now()
	v := t.inner.Cost(i, j)
	t.observe(s, c0, 1)
	return v
}

// BatchCost forwards to the inner batch path; core's live oracles
// (SharedOracle, LiveOracle) all have one.
func (t *timedOracle) BatchCost(pairs []sampling.Pair, out []float64, parallelism int) {
	c0, s := t.inner.Calls(), t.log.now()
	t.inner.(sampling.BatchOracle).BatchCost(pairs, out, parallelism)
	t.observe(s, c0, len(pairs))
}

func (t *timedOracle) N() int       { return t.inner.N() }
func (t *timedOracle) K() int       { return t.inner.K() }
func (t *timedOracle) Calls() int64 { return t.inner.Calls() }
func (t *timedOracle) stats() oracleStats {
	return oracleStats{busy: t.busy.Load(), entries: t.entries.Load(), pairs: t.pairs.Load(), calls: t.calls.Load()}
}

// oracleStats sums what timedOracles saw.
type oracleStats struct {
	busy, entries, pairs, calls int64
}

func (a *oracleStats) addAll(b oracleStats) {
	a.busy += b.busy
	a.entries += b.entries
	a.pairs += b.pairs
	a.calls += b.calls
}

// heapMonitor samples the Go heap in use until stopped and keeps the peak.
type heapMonitor struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapMonitor() *heapMonitor {
	h := &heapMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	read := func() {
		metrics.Read(samples)
		if v := samples[0].Value.Uint64() + samples[1].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the monitor and returns the peak heap in use, in MiB.
func (h *heapMonitor) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// runtimeCounters are cumulative Go runtime totals.
type runtimeCounters struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// addGoMetrics reports the Go runtime's work between two readings, per
// operation.
func addGoMetrics(rep *report, a, b runtimeCounters, ops int) {
	rep.add("go.alloc_mb_per_op", ratio(float64(b.allocBytes-a.allocBytes)/(1<<20), float64(ops)), "MiB", ops)
	rep.add("go.mallocs_per_op", ratio(float64(b.allocObjects-a.allocObjects), float64(ops)), "count", ops)
	rep.add("go.gc_cpu_share", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU), "ratio", 0)
}

// sqlparseTimes re-parses, re-analyzes and re-templates every statement
// of w and returns the mean microseconds per statement of parse+analyze
// and of template extraction.
func sqlparseTimes(cat *catalog.Catalog, w *workload.Workload) (parseAnalyzeUS, templateUS float64, err error) {
	stmts := make([]sqlparse.Statement, len(w.Queries))
	t0 := time.Now()
	for i, q := range w.Queries {
		st, perr := sqlparse.Parse(q.SQL)
		if perr != nil {
			return 0, 0, fmt.Errorf("parse statement %d: %w", i, perr)
		}
		if _, perr = sqlparse.Analyze(st, cat.Resolve); perr != nil {
			return 0, 0, fmt.Errorf("analyze statement %d: %w", i, perr)
		}
		stmts[i] = st
	}
	t1 := time.Now()
	for i, st := range stmts {
		if _, tid := sqlparse.Template(st); tid != w.Queries[i].Template {
			return 0, 0, fmt.Errorf("statement %d: template %d, workload says %d", i, tid, w.Queries[i].Template)
		}
	}
	t2 := time.Now()
	n := float64(len(stmts))
	return float64(t1.Sub(t0).Nanoseconds()) / 1e3 / n, float64(t2.Sub(t1).Nanoseconds()) / 1e3 / n, nil
}

// whatIfMicro times direct Optimizer.Cost calls over a fixed sample of
// (statement, configuration) pairs drawn from seed: the median of three
// passes in microseconds per call, and heap allocations per call.
func whatIfMicro(cat *catalog.Catalog, w *workload.Workload, configs []*physical.Configuration, pairs int, seed uint64) (us, allocs float64) {
	rng := stats.NewRNG(seed)
	qs, cs := make([]int, pairs), make([]int, pairs)
	for i := range qs {
		qs[i], cs[i] = rng.Intn(w.Size()), rng.Intn(len(configs))
	}
	opt := optimizer.New(cat)
	var passes []float64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	for pass := 0; pass < 3; pass++ {
		runtime.ReadMemStats(&ms0)
		t := time.Now()
		for i := range qs {
			opt.Cost(w.Queries[qs[i]].Analysis, configs[cs[i]])
		}
		passes = append(passes, float64(time.Since(t).Nanoseconds())/1e3/float64(pairs))
		runtime.ReadMemStats(&ms1)
		allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(pairs)
	}
	return median(passes), allocs
}

// samplerOptions rebuilds the sampling options core.SelectCtx derives
// from o, so the sampler can be replayed on its own. o must carry its
// defaults (core.DefaultOptions does).
func samplerOptions(o core.Options, w *workload.Workload) sampling.Options {
	return sampling.Options{
		Scheme:               o.Scheme,
		Strat:                o.Strat,
		Alpha:                o.Alpha,
		Delta:                o.Delta,
		NMin:                 o.NMin,
		StabilityWindow:      o.StabilityWindow,
		EliminationThreshold: o.EliminationThreshold,
		MaxCalls:             o.MaxCalls,
		Parallelism:          o.Parallelism,
		RNG:                  stats.NewRNG(o.Seed),
		TemplateIndex:        w.TemplateIndexOf(),
		TemplateCount:        w.NumTemplates(),
	}
}

// boundsReplay is Section 6's bound derivation redone on the inputs
// core.SelectCtx gives it, each step timed.
type boundsReplay struct {
	deriveMS, sigmaMaxMS, cltMS float64
	deriveCalls                 int64
	varianceBound               float64
	cltMin                      int
}

func replayBounds(log *spanLog, parent int, cat *catalog.Catalog, w *workload.Workload, configs []*physical.Configuration, o core.Options) (*boundsReplay, error) {
	root := log.open(spanBoundsRoot, parent)
	defer log.close(root)
	opt := optimizer.New(cat)
	r := &boundsReplay{}

	id := log.open(spanDerive, root)
	ivs := bounds.NewDeriver(opt, configs...).WithParallelism(o.Parallelism).WorkloadIntervals(w)
	r.deriveMS = float64(log.close(id)) / 1e6
	r.deriveCalls = opt.Calls()

	id = log.open(spanSigmaMax, root)
	target := ivs
	if o.Scheme == sampling.Delta {
		target = bounds.DiffIntervals(ivs, ivs)
	}
	if v, err := bounds.SigmaMaxDP(target, o.Rho); err == nil {
		r.varianceBound = v.UpperBound
	} else {
		r.varianceBound = bounds.SigmaMaxThreshold(target)
	}
	r.sigmaMaxMS = float64(log.close(id)) / 1e6

	id = log.open(spanCLTMin, root)
	cltMin, err := bounds.CLTMinSamples(ivs, o.Rho)
	r.cltMS = float64(log.close(id)) / 1e6
	if err != nil {
		return nil, fmt.Errorf("bounds replay: %w", err)
	}
	r.cltMin = cltMin
	return r, nil
}

// withBounds adds the conservative-mode hooks core.SelectCtx installs.
func (r *boundsReplay) withBounds(so sampling.Options) sampling.Options {
	bound, cltMin := r.varianceBound, r.cltMin
	so.VarianceBound = func(pair [2]int, n int) (float64, bool) {
		if n >= 4*cltMin {
			return 0, false
		}
		return bound, true
	}
	so.MinSamples = cltMin
	return so
}

// replaySampler runs the sampler alone over the ground-truth matrix with
// the options of sel's run, returning its wall time in milliseconds, and
// checks that it reaches the live selection's decision.
func replaySampler(log *spanLog, parent int, m *workload.CostMatrix, so sampling.Options, sel *core.Selection) (float64, error) {
	id := log.open(spanSampler, parent)
	res, err := sampling.Run(sampling.NewMatrixOracle(m), so)
	ms := float64(log.close(id)) / 1e6
	if err != nil {
		return 0, fmt.Errorf("sampler replay: %w", err)
	}
	if res.Best != sel.BestIndex || res.SampledQueries != sel.SampledQueries || res.Strata != sel.Strata {
		return ms, fmt.Errorf("sampler replay reached best=%d sampled=%d strata=%d, the live selection best=%d sampled=%d strata=%d",
			res.Best, res.SampledQueries, res.Strata, sel.BestIndex, sel.SampledQueries, sel.Strata)
	}
	return ms, nil
}

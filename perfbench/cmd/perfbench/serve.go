package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"physdes/internal/catalog"
	"physdes/internal/core"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sampling"
	"physdes/internal/serve"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

// tenants are the serve workload's two tenants, one closed-loop session
// each.
var tenants = []string{"tenant-a", "tenant-b"}

// tenantLimits turn the resilience wrapper on, as a physdesd started with
// -max-retries 2 does. The oracle is clean, so no retry ever fires.
var tenantLimits = serve.TenantLimits{MaxRetries: 2}

// jobParallelism is the per-job what-if parallelism the sessions request.
const jobParallelism = 1

// client talks to physdesd as one tenant.
type client struct {
	base   string
	http   *http.Client
	tenant string
}

func (c *client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", c.tenant)
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(resp.Body) // best effort: the status already says it failed
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// waitDone follows the job's SSE stream until its done event, as
// `physdes submit -follow` does.
func (c *client) waitDone(id string) error {
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", c.tenant)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events of %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if sc.Text() == "event: done" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events of %s: %w", id, err)
	}
	return fmt.Errorf("events of %s: stream ended before done", id)
}

// jobOutcome is one submitted job as its session saw it.
type jobOutcome struct {
	seed     uint64
	id       string
	span     int     // its serve.job span in a traced round, else -1
	latMS    float64 // submit to the SSE done event
	submitMS float64 // the POST /v1/jobs round trip
	result   *serve.JobResult
	err      error
}

// runJob submits one k-configuration job, follows it to done and fetches
// its result. With a span log, the job and its submission become spans.
func (c *client) runJob(log *spanLog, parent int, wlID string, seed uint64, k int) (out jobOutcome) {
	out.seed, out.span = seed, -1
	t0 := time.Now()
	if log != nil {
		out.span = log.open(spanJob, parent)
	}
	var jr serve.JobResponse
	var s0 int64
	if log != nil {
		s0 = log.now()
	}
	err := c.do(http.MethodPost, "/v1/jobs", serve.JobRequest{Workload: wlID, K: k, Seed: seed, Parallelism: jobParallelism}, &jr)
	out.submitMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	if log != nil {
		log.add(span{name: spanSubmit, parent: int32(out.span), tag: -1, start: s0, end: log.now()})
	}
	out.id = jr.ID
	if err == nil {
		err = c.waitDone(jr.ID)
	}
	out.latMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	if log != nil {
		log.close(out.span)
	}
	if err != nil {
		out.err = err
		return out
	}
	var final serve.JobResponse
	if out.err = c.do(http.MethodGet, "/v1/jobs/"+jr.ID, nil, &final); out.err != nil {
		return out
	}
	if final.Status != serve.StatusDone || final.Result == nil {
		out.err = fmt.Errorf("job %s ended %s: %s", jr.ID, final.Status, final.Error)
		return out
	}
	out.result = final.Result
	return out
}

// serveEnv is one set-up of the serve workload: the generated workload,
// a started daemon, and each tenant's uploaded copy of the workload.
type serveEnv struct {
	cat     *catalog.Catalog
	w       *workload.Workload
	srv     *serve.Server
	clients []*client
	wlIDs   []string
	cands   []physical.Structure // the candidates physdesd enumerates for the workload
}

func (e *serveEnv) close() {
	_ = e.srv.Close() // only the listener's close error; every runner has exited
	for _, c := range e.clients {
		c.http.CloseIdleConnections()
	}
}

// setupServe generates the CRM workload, starts physdesd on a loopback
// port and uploads the workload's SQL once per tenant.
func setupServe(n, k int, wseed uint64, scfg serve.Config, st *setupTimes) (*serveEnv, error) {
	t0, c0 := time.Now(), cpuTime()
	cat := catalog.CRM()
	w, err := workload.GenCRM(cat, n, wseed)
	if err != nil {
		return nil, fmt.Errorf("generate workload: %w", err)
	}
	sqls := make([]string, w.Size())
	for i, q := range w.Queries {
		sqls[i] = q.SQL
	}
	t1 := time.Now()
	srv := serve.New(scfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		_ = srv.Close() // the listen error is the one to report
		return nil, err
	}
	env := &serveEnv{cat: cat, w: w, srv: srv}
	hc := &http.Client{Timeout: 60 * time.Second}
	t2 := time.Now()
	for _, name := range tenants {
		c := &client{base: "http://" + addr, http: hc, tenant: name}
		var wr serve.WorkloadResponse
		if err := c.do(http.MethodPost, "/v1/workloads", serve.WorkloadRequest{DB: "crm", SQL: sqls}, &wr); err != nil {
			env.close()
			return nil, fmt.Errorf("upload workload: %w", err)
		}
		if wr.Statements != w.Size() {
			env.close()
			return nil, fmt.Errorf("uploaded %d statements, daemon parsed %d", w.Size(), wr.Statements)
		}
		env.clients = append(env.clients, c)
		env.wlIDs = append(env.wlIDs, wr.ID)
	}
	t3, c3 := time.Now(), cpuTime()
	// Outside the set-up proper: the candidates and a space as physdesd
	// builds them for each job, which the replays need.
	env.cands = physical.EnumerateCandidates(cat, analyses(w), physical.CandidateOptions{Covering: true, Views: false})
	t4 := time.Now()
	physical.GenerateSpace(cat, env.cands, k, stats.NewRNG(wseed), spaceOptions)
	t5 := time.Now()
	st.cpu = append(st.cpu, (c3 - c0).Seconds())
	st.total = append(st.total, t3.Sub(t0).Seconds())
	st.generate = append(st.generate, t1.Sub(t0).Seconds())
	st.upload = append(st.upload, t3.Sub(t2).Seconds())
	st.enumerate = append(st.enumerate, t4.Sub(t3).Seconds())
	st.space = append(st.space, t5.Sub(t4).Seconds())
	return env, nil
}

// round runs one closed-loop session per tenant: each submits its seeds
// in order, once through and then on, cycling, until the deadline has
// passed (a zero deadline: once through). The sessions stop job by job
// rather than pass by pass, so both stay busy to the end: the daemon's
// CPU cost per job depends on how many jobs run at once. firstPass, when
// non-nil, is called once every session has been through its seeds.
func (e *serveEnv) round(log *spanLog, parent int, seeds [][]uint64, k int, deadline time.Time, firstPass func()) [][]jobOutcome {
	out := make([][]jobOutcome, len(e.clients))
	var pending atomic.Int64
	pending.Store(int64(len(e.clients)))
	var wg sync.WaitGroup
	for t, c := range e.clients {
		wg.Add(1)
		go func(t int, c *client) {
			defer wg.Done()
			ts := seeds[t]
			for i := 0; i < len(ts) || time.Now().Before(deadline); i++ {
				out[t] = append(out[t], c.runJob(log, parent, e.wlIDs[t], ts[i%len(ts)], k))
				if i == len(ts)-1 && pending.Add(-1) == 0 && firstPass != nil {
					firstPass()
				}
			}
		}(t, c)
	}
	wg.Wait()
	return out
}

// jobSeeds draws the serve run's workload seed and each tenant's job
// seeds.
func jobSeeds(seed uint64, perTenant int) (uint64, [][]uint64) {
	wseed, all := deriveSeeds(seed, perTenant*len(tenants))
	seeds := make([][]uint64, len(tenants))
	for t := range seeds {
		seeds[t] = all[t*perTenant : (t+1)*perTenant]
	}
	return wseed, seeds
}

// replayed is a job re-run in process through serve.JobOptions and
// core.SelectCtx on the space physdesd builds for it.
type replayed struct {
	configs []*physical.Configuration
	opts    core.Options
	sel     *core.Selection
	ms      float64 // space generation plus selection
}

func replayJob(e *serveEnv, seed uint64, k int) (*replayed, error) {
	t := time.Now()
	configs := physical.GenerateSpace(e.cat, e.cands, k, stats.NewRNG(seed+1), spaceOptions)
	o, err := serve.JobOptions(serve.JobRequest{K: k, Seed: seed, Parallelism: jobParallelism}, tenantLimits)
	if err != nil {
		return nil, err
	}
	sel, err := core.SelectCtx(context.Background(), optimizer.New(e.cat), e.w, configs, o)
	if err != nil {
		return nil, fmt.Errorf("replay of job seed %d: %w", seed, err)
	}
	return &replayed{configs: configs, opts: o, sel: sel, ms: float64(time.Since(t).Nanoseconds()) / 1e6}, nil
}

// jobResult is the JobResult physdesd reports for sel.
func jobResult(sel *core.Selection) serve.JobResult {
	eliminated := 0
	for _, e := range sel.Eliminated {
		if e {
			eliminated++
		}
	}
	return serve.JobResult{
		Best:            sel.Best.Name(),
		BestIndex:       sel.BestIndex,
		PrCS:            sel.PrCS,
		SampledQueries:  sel.SampledQueries,
		OptimizerCalls:  sel.OptimizerCalls,
		Eliminated:      eliminated,
		Strata:          sel.Strata,
		DegradedQueries: sel.DegradedQueries,
		OracleRetries:   sel.OracleRetries,
		OracleFaults:    sel.OracleFaults,
	}
}

// checkJobs counts every job whose result differs from its seed's
// in-process replay, or that retried or faulted, as failed.
func checkJobs(rep *report, jobs [][]jobOutcome, replays map[uint64]*replayed) {
	for _, js := range jobs {
		for _, j := range js {
			rep.Attempted++
			switch {
			case j.err != nil:
				rep.fail("job seed %d: %v", j.seed, j.err)
			case *j.result != jobResult(replays[j.seed].sel):
				rep.fail("job %s seed %d: %+v, replay %+v", j.id, j.seed, *j.result, jobResult(replays[j.seed].sel))
			case j.result.OracleRetries != 0 || j.result.OracleFaults != 0:
				rep.fail("job %s seed %d: %d retries, %d faults on a clean oracle", j.id, j.seed, j.result.OracleRetries, j.result.OracleFaults)
			}
		}
	}
}

// replayAll replays every distinct job seed once on up to workers
// goroutines; replays are timed, so pass 1 when their times are used.
func replayAll(e *serveEnv, seeds [][]uint64, k, workers int) (map[uint64]*replayed, error) {
	var distinct []uint64
	seen := map[uint64]bool{}
	for _, ts := range seeds {
		for _, s := range ts {
			if !seen[s] {
				seen[s] = true
				distinct = append(distinct, s)
			}
		}
	}
	rs := make([]*replayed, len(distinct))
	errs := make([]error, len(distinct))
	forEach(len(distinct), workers, func(i int) {
		rs[i], errs[i] = replayJob(e, distinct[i], k)
	})
	out := map[uint64]*replayed{}
	for i, s := range distinct {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[s] = rs[i]
	}
	return out, nil
}

// runServe runs serve-crm-6k: two tenants' closed-loop sessions against
// physdesd over loopback HTTP.
func runServe(cfg config) (*report, error) {
	sc := cfg.Scale
	perTenant := sc.JobSeeds
	if cfg.Trace {
		perTenant = min(sc.TracedOps, sc.JobSeeds)
	}
	wseed, seeds := jobSeeds(cfg.Seed, perTenant)
	var tr *serveTracer
	scfg := serve.Config{Limits: tenantLimits}
	if cfg.Trace {
		tr = &serveTracer{log: newSpanLog(), tags: map[string]int32{}}
		scfg.WrapOracle = tr.wrap
	}
	var st setupTimes
	var env *serveEnv
	for r := 0; r < sc.SetupReps; r++ {
		if env != nil {
			env.close()
		}
		var err error
		if env, err = setupServe(sc.CRMStatements, sc.K, wseed, scfg, &st); err != nil {
			return nil, err
		}
	}
	defer env.close()
	if cfg.Trace {
		return traceServe(cfg, env, seeds, &st, tr)
	}

	rep := &report{}
	e := endToEnd{setup: &st}
	runtime.GC()
	heap := startHeapMonitor()
	start, c0 := time.Now(), cpuTime()
	// physdesd keeps every job it ran, so its heap grows with the number
	// of jobs; the peak is taken over the first pass, a fixed set of jobs.
	jobs := env.round(nil, -1, seeds, sc.K, start.Add(time.Duration(cfg.Seconds*float64(time.Second))),
		func() { e.heapMB = heap.finish() })
	e.wallS = time.Since(start).Seconds()
	// Jobs overlap, so a job's own CPU time cannot be told apart: this is
	// the process's (daemon and clients) CPU time per job.
	cpuMS := float64((cpuTime() - c0).Nanoseconds()) / 1e6

	replays, err := replayAll(env, seeds, sc.K, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	checkJobs(rep, jobs, replays)
	for _, js := range jobs {
		for _, j := range js {
			e.lat = append(e.lat, j.latMS)
		}
	}
	e.cpuMS = cpuMS / float64(len(e.lat))
	for _, r := range replays {
		e.calls = append(e.calls, float64(r.sel.OptimizerCalls))
	}
	// The exhaustive matrix costs most of a run's time, so correctness is
	// checked on each tenant's first CheckedJobs seeds.
	for _, ts := range seeds {
		for _, s := range ts[:min(sc.CheckedJobs, len(ts))] {
			r := replays[s]
			_, totals, best := groundTruth(env.cat, env.w, r.configs)
			e.checked++
			if totals[r.sel.BestIndex] <= best+r.opts.Delta {
				e.correct++
			}
		}
	}
	e.addTo(rep)
	return rep, nil
}

// serveTracer wraps the oracle of every job that starts while it is on.
type serveTracer struct {
	log *spanLog
	on  atomic.Bool

	mu      sync.Mutex
	oracles []*timedOracle
	tags    map[string]int32 // job id -> tag of its oracle spans
}

func (t *serveTracer) wrap(tenant, jobID string, in sampling.Oracle) sampling.Oracle {
	if !t.on.Load() {
		return in
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tag := int32(len(t.oracles))
	tor := newTimedOracle(in, t.log, -1, tag)
	t.oracles = append(t.oracles, tor)
	t.tags[jobID] = tag
	return tor
}

// traceServe is the traced run of the serve workload: an untraced round
// and a traced round of the same jobs, then in-process replays that split
// a job's time into layers.
func traceServe(cfg config, env *serveEnv, seeds [][]uint64, st *setupTimes, tr *serveTracer) (*report, error) {
	log := tr.log
	sc := cfg.Scale
	rep := &report{}
	var ly layers
	ly.setup(st)
	var err error
	if ly.parseAnalyzeUS, ly.templateUS, err = sqlparseTimes(env.cat, env.w); err != nil {
		return nil, err
	}
	ly.stmts = env.w.Size()

	// Untraced round.
	runtime.GC()
	rc0 := readRuntime()
	untraced := env.round(nil, -1, seeds, sc.K, time.Time{}, nil)
	ly.rc0, ly.rc1 = rc0, readRuntime()

	// Traced round: the daemon wraps each job's oracle in a timedOracle.
	root := log.open(spanRun, -1)
	reg := env.srv.Registry()
	c0 := readCounters(reg)
	tr.on.Store(true)
	traced := env.round(log, root, seeds, sc.K, time.Time{}, nil)
	tr.on.Store(false)
	tr.mu.Lock()
	for _, tor := range tr.oracles {
		ly.oracle.addAll(tor.stats())
	}
	tags := tr.tags
	tr.mu.Unlock()
	ly.reg = readCounters(reg).since(c0)

	// Replays: each job in process, untraced (the result check and the
	// serve overhead) and traced (the layer split of a selection).
	replays, err := replayAll(env, seeds, sc.K, 1)
	if err != nil {
		return nil, err
	}
	checkJobs(rep, untraced, replays)
	checkJobs(rep, traced, replays)
	parents := map[int32]int{}
	var untracedMS, tracedMS, replayMS, submitMS []float64
	for t := range seeds {
		for i := range untraced[t] {
			u, tj := untraced[t][i], traced[t][i]
			untracedMS = append(untracedMS, u.latMS)
			tracedMS = append(tracedMS, tj.latMS)
			replayMS = append(replayMS, replays[u.seed].ms)
			submitMS = append(submitMS, u.submitMS, tj.submitMS)
			if tag, ok := tags[tj.id]; ok {
				parents[tag] = tj.span
			}
		}
	}
	log.attachTagged(parents)
	ly.ops, ly.goOps = len(tracedMS), len(untracedMS)
	ly.wallMS = sum(tracedMS)
	ly.untracedMS, ly.tracedMS = mean(untracedMS), mean(tracedMS)
	ly.overheadMS = mean(untracedMS) - mean(replayMS)
	ly.submitMS, ly.submits = sum(submitMS), len(submitMS)

	// Direct what-if calls on the first job's space.
	ly.whatifUS, ly.whatifAllocs = whatIfMicro(env.cat, env.w, replays[seeds[0][0]].configs, sc.WhatIfPairs, cfg.Seed)
	ly.whatifPairs = sc.WhatIfPairs

	// Oracle time and the sampler, per traced job.
	self := log.selfTimes()
	var jobSelfMS float64
	for _, js := range traced {
		for _, j := range js {
			jobSelfMS += float64(self[j.span]) / 1e6
			ly.calls += replays[j.seed].sel.OptimizerCalls
			ly.strata += replays[j.seed].sel.Strata
		}
	}
	samplerMS := map[uint64]float64{}
	for _, js := range traced {
		for _, j := range js {
			ms, done := samplerMS[j.seed]
			if !done {
				r := replays[j.seed]
				m, _, _ := groundTruth(env.cat, env.w, r.configs)
				if ms, err = replaySampler(log, root, m, samplerOptions(r.opts, env.w), r.sel); err != nil {
					rep.fail("job seed %d: %v", j.seed, err)
				}
				samplerMS[j.seed] = ms
			}
			ly.samplerMS += ms
		}
	}
	log.close(root)
	ly.residualMS = jobSelfMS - ly.samplerMS - float64(ly.ops)*ly.overheadMS
	if err := log.write(spansPath(cfg)); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	ly.emit(rep)
	return rep, nil
}

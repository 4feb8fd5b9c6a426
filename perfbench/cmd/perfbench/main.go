// Command perfbench is the repository benchmark. It runs one of three
// workloads at the paper's scale (Section 7: 13,000 TPC-D statements,
// 6,000 CRM statements, k=50 configurations), checks every result it
// produces, and prints one JSON object as the last line of its output:
//
//	bash perfbench/run.sh --workload tpcd-13k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics, measured with
// no tracing at all. With --trace 1 a separate traced pass breaks the
// end-to-end time into layers and the object carries the per-layer
// metrics instead. README.md defines every metric and records which
// end-to-end metric each layer is predicted to move.
//
// The benchmark drives only the program's public entry points (core,
// sampling, bounds, optimizer, physical, sqlparse, workload and the
// physdesd HTTP API); all timing happens in this package, around those
// calls.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlTPCD         = "tpcd-13k"
	wlServe        = "serve-crm-6k"
	wlConservative = "tpcd-13k-conservative"
)

// scale sizes one run. fullScale is what the benchmark measures; the
// self-test uses a tiny scale with the same code paths.
type scale struct {
	TPCDStatements int // statements in the TPC-D workloads
	CRMStatements  int // statements in the serve workload
	K              int // configurations per selection or job
	SelectSeeds    int // distinct selection seeds per tpcd-13k run
	ConsSeeds      int // distinct selection seeds per conservative run
	JobSeeds       int // distinct job seeds per serve tenant
	CheckedJobs    int // job seeds per tenant whose pick is checked against ground truth
	TracedOps      int // selections (serve: jobs per tenant) in the traced pass
	SetupReps      int // set-ups per run; setup_s is their median
	WhatIfPairs    int // pairs in the direct what-if microbenchmark
}

var fullScale = scale{
	TPCDStatements: 13_000,
	CRMStatements:  6_000,
	K:              50,
	SelectSeeds:    128,
	ConsSeeds:      1,
	JobSeeds:       18,
	CheckedJobs:    12,
	TracedOps:      24,
	SetupReps:      5,
	WhatIfPairs:    20_000,
}

// config is one invocation.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	SpansDir string
	Scale    scale
}

// measure is one reported metric.
type measure struct {
	Name    string
	Value   float64
	Unit    string
	Samples int // observations behind Value (0: a ratio or a derived figure)
}

// report is what one run produced: every metric of its mode plus the
// operation accounting and the reasons of any failed check. Info holds
// figures the table shows but the result object leaves out.
type report struct {
	Attempted int
	Failed    int
	Failures  []string
	Metrics   []measure
	Info      []measure
}

func (r *report) add(name string, value float64, unit string, samples int) {
	r.Metrics = append(r.Metrics, measure{Name: name, Value: value, Unit: unit, Samples: samples})
}

func (r *report) addInfo(name string, value float64, unit string, samples int) {
	r.Info = append(r.Info, measure{Name: name, Value: value, Unit: unit, Samples: samples})
}

// fail records a failed check; every failure also counts as a failed
// operation.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeReport(os.Stdout, cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.Failed > 0 {
		for _, f := range rep.Failures {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
		}
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join([]string{wlTPCD, wlServe, wlConservative}, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload, the selection seeds and the job seeds derive from")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics without tracing; 1: the traced per-layer run")
	spans := fs.String("spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, SpansDir: *spans, Scale: fullScale}
	switch {
	case cfg.Workload != wlTPCD && cfg.Workload != wlServe && cfg.Workload != wlConservative:
		return cfg, fmt.Errorf("unknown workload %q", cfg.Workload)
	case *trace != 0 && *trace != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	case cfg.Seconds <= 0:
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	return cfg, nil
}

// run executes the configured workload.
func run(cfg config) (*report, error) {
	switch cfg.Workload {
	case wlServe:
		return runServe(cfg)
	default:
		return runLibrary(cfg, cfg.Workload == wlConservative)
	}
}

// writeReport prints a human-readable table (name, value, unit, sample
// count, GOMAXPROCS) followed by the result object as the last line.
func writeReport(w io.Writer, cfg config, rep *report) error {
	mode := "end-to-end, untraced"
	if cfg.Trace {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "workload %s seed %d (%s) GOMAXPROCS %d: %d attempted, %d failed\n",
		cfg.Workload, cfg.Seed, mode, runtime.GOMAXPROCS(0), rep.Attempted, rep.Failed)
	row := func(m measure, note string) {
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("n=%d", m.Samples)
		}
		fmt.Fprintf(w, "  %-30s %16.6g %-6s %-8s %s\n", m.Name, m.Value, m.Unit, n, note)
	}
	for _, m := range rep.Metrics {
		row(m, "")
	}
	for _, m := range rep.Info {
		row(m, "(not gated)")
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]value{}}
	for _, m := range rep.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the CPU time the process has used so far: user plus
// system, over all threads. Unlike wall time it leaves out the time a
// virtual CPU is taken away by its host, so it stays steady on a shared
// machine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

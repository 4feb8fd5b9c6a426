package sampling

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"physdes/internal/stats"
	"physdes/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenTemplates and goldenK shape the engine golden's cost matrix.
const (
	goldenTemplates = 8
	goldenK         = 5
)

// skipOracle asks the sampler to skip-and-reweight a fixed, seed-free
// subset of probes: the minimal degrading ErrOracle.
type skipOracle struct{ *MatrixOracle }

func (o skipOracle) BatchCostErr(pairs []Pair, out []float64, errs []error, parallelism int) {
	o.MatrixOracle.BatchCost(pairs, out, parallelism)
	for i, p := range pairs {
		errs[i] = nil
		if (p.Q*31+p.J*7)%23 == 0 {
			errs[i] = fmt.Errorf("probe %d/%d: %w", p.Q, p.J, ErrSkipQuery)
		}
	}
}

// shiftedMatrix returns a copy of m whose costliest template moved so that
// configuration differences drift: a warm prior captured on m disagrees
// with fresh samples from it.
func shiftedMatrix(m *workload.CostMatrix, tmplIdx []int) *workload.CostMatrix {
	out := &workload.CostMatrix{Configs: m.Configs, Costs: make([][]float64, len(m.Costs))}
	for i, row := range m.Costs {
		out.Costs[i] = append([]float64(nil), row...)
		if tmplIdx[i] == goldenTemplates-1 {
			for j := range out.Costs[i] {
				out.Costs[i][j] *= 1 + 0.5*float64(goldenK-j)
			}
		}
	}
	return out
}

func fnvFloats(xs []float64) uint64 {
	h := fnv.New64a()
	for _, x := range xs {
		var b [8]byte
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func fnvBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// goldenLine renders one run's observable outcome.
func goldenLine(t *testing.T, name string, res *Result) string {
	t.Helper()
	var stateHash uint64
	if res.State != nil {
		data, err := res.State.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		stateHash = fnvBytes(data)
	}
	return fmt.Sprintf("%s best=%d prcs=%.17g sampled=%d calls=%d elim=%v strata=%d splits=%d degraded=%d trace=%d/%016x warm=%+v state=%016x\n",
		name, res.Best, res.PrCS, res.SampledQueries, res.OptimizerCalls, res.Eliminated,
		res.Strata, res.Splits, res.DegradedQueries, len(res.PrCSTrace), fnvFloats(res.PrCSTrace),
		res.Warm, stateHash)
}

// TestEngineGolden pins every observable output of both sampling schemes
// across stratification modes, termination rules, parallelism, call-cost
// weighting, conservative variance bounds, warm resumes (clean and
// drifted) and skip-and-reweight degradation. Regenerate with -update only
// when a change to the selections is intended.
func TestEngineGolden(t *testing.T) {
	m, tmplIdx := synthMatrix(1500, goldenK, goldenTemplates, 0.03, 1.5, 91)
	base := func(scheme Scheme, strat StratMode, seed uint64) Options {
		return Options{
			Scheme: scheme, Strat: strat, Alpha: 0.9, NMin: 10,
			RNG:           stats.NewRNG(seed),
			TemplateIndex: tmplIdx, TemplateCount: goldenTemplates,
			TemplateSigs: sigsFor(goldenTemplates), ConfigFingerprints: fpsFor(goldenK),
			CaptureState: true, TracePrCS: true,
		}
	}
	run := func(name string, o Oracle, opts Options) (*Result, string) {
		res, err := Run(o, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res, goldenLine(t, name, res)
	}

	var buf bytes.Buffer
	terms := []struct {
		name  string
		apply func(*Options)
	}{
		{"adaptive", func(o *Options) { o.StabilityWindow, o.EliminationThreshold = 10, 0.995 }},
		{"budget-in-pilot", func(o *Options) { o.MaxCalls = 37 }},
		{"budget-after-pilot", func(o *Options) { o.MaxCalls = 1500 }},
	}
	for _, scheme := range []Scheme{Delta, Independent} {
		for _, strat := range []StratMode{NoStrat, Progressive, Fine, EqualAlloc} {
			for ti, term := range terms {
				for _, par := range []int{1, 4} {
					opts := base(scheme, strat, uint64(100+10*int(strat)+ti))
					term.apply(&opts)
					opts.Parallelism = par
					name := fmt.Sprintf("%v/%v/%s/par%d", scheme, strat, term.name, par)
					_, line := run(name, NewMatrixOracle(m), opts)
					buf.WriteString(line)
				}
			}
		}
	}

	for _, scheme := range []Scheme{Delta, Independent} {
		opts := base(scheme, Fine, 7)
		opts.MaxCalls = 1200
		opts.CallCost = func(q int) float64 { return float64(1 + 4*tmplIdx[q]) }
		_, line := run(fmt.Sprintf("%v/callcost", scheme), NewMatrixOracle(m), opts)
		buf.WriteString(line)

		opts = base(scheme, Progressive, 8)
		opts.VarianceBound = func(pair [2]int, n int) (float64, bool) {
			if n >= 400 {
				return 0, false
			}
			return 2e5, true
		}
		opts.MinSamples = 150
		_, line = run(fmt.Sprintf("%v/variance-bound", scheme), NewMatrixOracle(m), opts)
		buf.WriteString(line)

		opts = base(scheme, Progressive, 9)
		opts.MaxCalls = 1000
		prior, line := run(fmt.Sprintf("%v/warm-capture", scheme), NewMatrixOracle(m), opts)
		buf.WriteString(line)
		opts = base(scheme, Progressive, 10)
		opts.WarmState = prior.State
		_, line = run(fmt.Sprintf("%v/warm-resume", scheme), NewMatrixOracle(m), opts)
		buf.WriteString(line)
		opts = base(scheme, Progressive, 10)
		opts.WarmState = prior.State
		opts.MaxCalls = 1500
		res, line := run(fmt.Sprintf("%v/warm-drifted", scheme), NewMatrixOracle(shiftedMatrix(m, tmplIdx)), opts)
		buf.WriteString(line)
		if res.Warm.PriorDropped == 0 {
			t.Errorf("%v/warm-drifted: no stratum prior was dropped", scheme)
		}

		for _, strat := range []StratMode{NoStrat, Progressive} {
			opts = base(scheme, strat, 11)
			opts.Parallelism = 4
			res, line = run(fmt.Sprintf("%v/%v/skip/par4", scheme, strat), skipOracle{NewMatrixOracle(m)}, opts)
			buf.WriteString(line)
			if res.DegradedQueries == 0 {
				t.Errorf("%v/%v/skip: no probe degraded", scheme, strat)
			}
		}
	}

	path := filepath.Join("testdata", "engine.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("engine outputs differ from %s:\n%s", path, lineDiff(string(want), buf.String()))
	}
}

// lineDiff lists the golden lines that changed.
func lineDiff(want, got string) string {
	wl, gl := bytes.Split([]byte(want), []byte("\n")), bytes.Split([]byte(got), []byte("\n"))
	var out bytes.Buffer
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			fmt.Fprintf(&out, "-%s\n+%s\n", w, g)
		}
	}
	return out.String()
}

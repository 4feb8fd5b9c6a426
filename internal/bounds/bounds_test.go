package bounds

import (
	"math"
	"testing"
	"testing/quick"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Lo: 2, Hi: 6}
	if !iv.Valid() || iv.Mid() != 4 || iv.Width() != 4 {
		t.Errorf("interval ops wrong: %+v", iv)
	}
	bad := []Interval{
		{Lo: 5, Hi: 2},
		{Lo: -1, Hi: 2},
		{Lo: math.NaN(), Hi: 2},
		{Lo: 0, Hi: math.Inf(1)},
	}
	for _, b := range bad {
		if b.Valid() {
			t.Errorf("interval %+v should be invalid", b)
		}
	}
}

func TestSigmaMaxDPDegenerate(t *testing.T) {
	// Point intervals: the variance is fixed; σ̂²_max equals it (up to
	// rounding) and θ is the only slack.
	ivs := []Interval{{1, 1}, {3, 3}, {5, 5}}
	res, err := SigmaMaxDP(ivs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := stats.PopulationVariance([]float64{1, 3, 5})
	if math.Abs(res.Sigma2-want) > 1e-9 {
		t.Errorf("Sigma2 = %v, want %v", res.Sigma2, want)
	}
	if res.UpperBound < want {
		t.Error("upper bound below the true variance")
	}
}

func TestSigmaMaxDPErrors(t *testing.T) {
	if _, err := SigmaMaxDP(nil, 1); err == nil {
		t.Error("empty input should error")
	}
	if _, err := SigmaMaxDP([]Interval{{1, 2}}, 0); err == nil {
		t.Error("rho=0 should error")
	}
	if _, err := SigmaMaxDP([]Interval{{5, 1}}, 1); err == nil {
		t.Error("invalid interval should error")
	}
	// Table blowup guard.
	if _, err := SigmaMaxDP([]Interval{{0, 1e12}}, 1e-3); err == nil {
		t.Error("oversized DP table should error")
	}
}

// The core accuracy guarantee: the DP answer is within θ of the true
// σ²_max (checked against exhaustive vertex enumeration on small inputs).
func TestSigmaMaxDPWithinThetaOfExact(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(9)
		ivs := make([]Interval, n)
		for i := range ivs {
			lo := rng.Float64() * 50
			ivs[i] = Interval{Lo: lo, Hi: lo + rng.Float64()*20}
		}
		exact, err := SigmaMaxExact(ivs)
		if err != nil {
			return false
		}
		for _, rho := range []float64{2, 0.5, 0.1} {
			res, err := SigmaMaxDP(ivs, rho)
			if err != nil {
				return false
			}
			if res.Sigma2 < exact-res.Theta-1e-9 || res.Sigma2 > exact+res.Theta+1e-9 {
				t.Logf("seed %d rho %v: dp %v exact %v theta %v", seed, rho, res.Sigma2, exact, res.Theta)
				return false
			}
			if res.UpperBound < exact-1e-9 {
				t.Logf("upper bound %v below exact %v", res.UpperBound, exact)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSigmaMaxDPShrinkingRhoTightens(t *testing.T) {
	rng := stats.NewRNG(11)
	ivs := make([]Interval, 50)
	for i := range ivs {
		lo := rng.Float64() * 100
		ivs[i] = Interval{Lo: lo, Hi: lo + rng.Float64()*30}
	}
	prevTheta := math.Inf(1)
	for _, rho := range []float64{10, 1, 0.1} {
		res, err := SigmaMaxDP(ivs, rho)
		if err != nil {
			t.Fatal(err)
		}
		if res.Theta >= prevTheta {
			t.Errorf("theta should shrink with rho: %v at rho=%v (prev %v)", res.Theta, rho, prevTheta)
		}
		prevTheta = res.Theta
	}
}

func TestSigmaMaxThresholdMatchesExactOnNonNested(t *testing.T) {
	// Equal-width intervals never nest, where the threshold search is
	// exact.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(10)
		ivs := make([]Interval, n)
		for i := range ivs {
			lo := rng.Float64() * 40
			ivs[i] = Interval{Lo: lo, Hi: lo + 5}
		}
		exact, err := SigmaMaxExact(ivs)
		if err != nil {
			return false
		}
		thr := SigmaMaxThreshold(ivs)
		return math.Abs(thr-exact) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSigmaMaxThresholdIsLowerBound(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(10)
		ivs := make([]Interval, n)
		for i := range ivs {
			lo := rng.Float64() * 40
			ivs[i] = Interval{Lo: lo, Hi: lo + rng.Float64()*25}
		}
		exact, err := SigmaMaxExact(ivs)
		if err != nil {
			return false
		}
		return SigmaMaxThreshold(ivs) <= exact+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSkewMaxUpperBoundsVertices(t *testing.T) {
	// Brute-force the vertex skew maximum on small inputs; SkewMax's
	// padded bound must not fall below it.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 3 + rng.Intn(8)
		ivs := make([]Interval, n)
		for i := range ivs {
			lo := rng.Float64() * 30
			ivs[i] = Interval{Lo: lo, Hi: lo + rng.Float64()*20}
		}
		bestVertex := math.Inf(-1)
		values := make([]float64, n)
		for mask := 0; mask < 1<<n; mask++ {
			for i, iv := range ivs {
				if mask&(1<<i) != 0 {
					values[i] = iv.Hi
				} else {
					values[i] = iv.Lo
				}
			}
			if g := stats.FisherSkew(values); g > bestVertex {
				bestVertex = g
			}
		}
		res, err := SkewMax(ivs)
		if err != nil {
			return false
		}
		// The multi-start local search is a heuristic; require it to come
		// within 15% of the vertex optimum and the padded bound to cover it.
		return res.UpperBound >= bestVertex-0.15*math.Abs(bestVertex)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSkewMaxOutlierDominates(t *testing.T) {
	// One interval reaching far above the rest: the achievable skew is
	// large and the Cochran requirement grows accordingly.
	ivs := make([]Interval, 100)
	for i := range ivs {
		ivs[i] = Interval{Lo: 1, Hi: 2}
	}
	ivs[0] = Interval{Lo: 1, Hi: 500}
	res, err := SkewMax(ivs)
	if err != nil {
		t.Fatal(err)
	}
	if res.G1 < 5 {
		t.Errorf("outlier skew = %v, want > 5", res.G1)
	}
	nMin, err := CLTMinSamples(ivs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if nMin <= stats.ModifiedCochranMinSamples(0) {
		t.Errorf("CLT minimum %d should exceed the no-skew floor", nMin)
	}
}

func TestSkewMaxErrors(t *testing.T) {
	if _, err := SkewMax(nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := CLTMinSamples([]Interval{{1, 2}}, 0); err == nil {
		t.Error("rho=0 should error")
	}
	if _, err := SkewMax([]Interval{{3, 1}}); err == nil {
		t.Error("invalid interval should error")
	}
}

// refGridSkewMax is SkewMax as it stood with its pivot grid: for up to
// 200,001 pivot means μ spanning [Σlo/n, Σhi/n] it picked, per interval,
// the endpoint maximizing (v − μ)³, scored that vertex, and refined the
// best one with the same multi-start local search. Only its input checks
// and its count of vertices tried are left out. It pins the grid-free
// SkewMax bit for bit, and also returns the grid's step count.
func refGridSkewMax(ivs []Interval, rho float64) (g1, upper float64, steps int) {
	n := len(ivs)
	var loMean, hiMean float64
	for _, iv := range ivs {
		loMean += iv.Lo
		hiMean += iv.Hi
	}
	loMean /= float64(n)
	hiMean /= float64(n)

	steps = int(math.Ceil((hiMean - loMean) / rho))
	const maxSteps = 200_000
	if steps > maxSteps {
		steps = maxSteps
	}
	if steps < 1 {
		steps = 1
	}
	gridRho := (hiMean - loMean) / float64(steps)
	if gridRho <= 0 {
		gridRho = rho
	}

	best := math.Inf(-1)
	values := make([]float64, n)
	bestValues := make([]float64, n)
	for s := 0; s <= steps; s++ {
		mu := loMean + float64(s)*gridRho
		for i, iv := range ivs {
			dLo, dHi := iv.Lo-mu, iv.Hi-mu
			if dHi*dHi*dHi >= dLo*dLo*dLo {
				values[i] = iv.Hi
			} else {
				values[i] = iv.Lo
			}
		}
		if g := stats.FisherSkew(values); g > best {
			best = g
			copy(bestValues, values)
		}
	}
	if math.IsInf(best, -1) {
		best = 0
	} else {
		if g := refLocalSkewSearch(ivs, bestValues); g > best {
			best = g
		}
		rng := stats.NewRNG(0x5eed)
		starts := 32
		if n > 10_000 {
			starts = 8
		}
		for s := 0; s < starts; s++ {
			for i, iv := range ivs {
				if rng.Float64() < 0.5 {
					values[i] = iv.Lo
				} else {
					values[i] = iv.Hi
				}
			}
			if g := refLocalSkewSearch(ivs, values); g > best {
				best = g
			}
		}
	}
	return best, best + math.Abs(best)*0.1, steps
}

// refLocalSkewSearch is localSkewSearch as it stood with the grid, so the
// reference does not lean on the code under test.
func refLocalSkewSearch(ivs []Interval, values []float64) float64 {
	n := len(values)
	fn := float64(n)
	var s1, s2, s3 float64
	for _, v := range values {
		s1 += v
		s2 += v * v
		s3 += v * v * v
	}
	g1 := func(a, b, c float64) float64 {
		mu := a / fn
		m2 := b/fn - mu*mu
		if m2 <= 0 {
			return 0
		}
		m3 := c/fn - 3*mu*b/fn + 2*mu*mu*mu
		return m3 / math.Pow(m2, 1.5)
	}
	best := g1(s1, s2, s3)
	for sweep := 0; sweep < 50; sweep++ {
		improved := false
		for i, iv := range ivs {
			alt := iv.Lo
			if values[i] == iv.Lo {
				alt = iv.Hi
			}
			if alt == values[i] {
				continue
			}
			old := values[i]
			na := s1 - old + alt
			nb := s2 - old*old + alt*alt
			nc := s3 - old*old*old + alt*alt*alt
			if g := g1(na, nb, nc); g > best+1e-15 {
				best = g
				values[i] = alt
				s1, s2, s3 = na, nb, nc
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return best
}

// skewCase draws one SkewMax input of the given shape:
//
//	0: small n, costs over three orders of magnitude, a third zero-width;
//	1: a spread so wide at so fine a rho that the grid hit its step cap;
//	2: n > 10,000 with a narrow spread (the 8-start branch);
//	3: a few costs near 1e103–1e110, whose moments overflow to NaN.
func skewCase(seed uint64, shape int) ([]Interval, float64) {
	rng := stats.NewRNG(seed)
	var n int
	rho := 0.01 + rng.Float64()*10
	switch shape {
	case 0, 3:
		n = 1 + rng.Intn(60)
	case 1:
		n = 2 + rng.Intn(30)
		rho = 1e-3
	case 2:
		n = 10_001 + rng.Intn(2_000)
		rho = 1
	}
	ivs := make([]Interval, n)
	for i := range ivs {
		lo := math.Pow(10, rng.Float64()*3) - 1
		var w float64
		switch shape {
		case 0:
			if rng.Float64() >= 1.0/3 {
				w = rng.Float64() * lo
			}
		case 1:
			w = rng.Float64() * 5_000
		case 2:
			w = rng.Float64() * 0.5
		case 3:
			w = rng.Float64() * lo
			if rng.Float64() < 0.2 {
				lo = math.Pow(10, 103+rng.Float64()*7)
				w = 0
			}
		}
		ivs[i] = Interval{Lo: lo, Hi: lo + w}
	}
	return ivs, rho
}

// TestSkewMaxMatchesGridReference checks that scoring the all-Hi vertex
// once returns what the pivot grid returned, bit for bit: at every pivot
// the grid picked the all-Hi vertex anyway.
func TestSkewMaxMatchesGridReference(t *testing.T) {
	same := func(ivs []Interval, rho float64) bool {
		res, err := SkewMax(ivs)
		if err != nil {
			t.Errorf("SkewMax: %v", err)
			return false
		}
		g1, upper, _ := refGridSkewMax(ivs, rho)
		if math.Float64bits(res.G1) != math.Float64bits(g1) ||
			math.Float64bits(res.UpperBound) != math.Float64bits(upper) {
			t.Logf("n=%d rho=%v: G1 %v vs grid %v, bound %v vs grid %v",
				len(ivs), rho, res.G1, g1, res.UpperBound, upper)
			return false
		}
		return true
	}
	f := func(seed uint64) bool {
		return same(skewCase(seed, int(seed%4)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}

	// Each shape at least once, whatever seeds quick.Check drew.
	for shape := 0; shape < 4; shape++ {
		ivs, rho := skewCase(111, shape)
		if !same(ivs, rho) {
			t.Errorf("shape %d diverges from the grid reference", shape)
		}
		switch _, _, steps := refGridSkewMax(ivs, rho); {
		case shape == 1 && steps != 200_000:
			t.Errorf("shape 1 ran %d grid steps, want the 200,000 cap", steps)
		case shape == 2 && len(ivs) <= 10_000:
			t.Errorf("shape 2 has n = %d, want > 10,000", len(ivs))
		}
	}
	// Moments overflow: the grid lost every step to −Inf and reported 0.
	overflow := []Interval{{1, 2}, {1e110, 1e110}, {3, 4}}
	if !same(overflow, 1) {
		t.Error("moment overflow diverges from the grid reference")
	}
	if res, _ := SkewMax(overflow); res.G1 != 0 || res.UpperBound != 0 {
		t.Errorf("moment overflow: got %+v, want zero", res)
	}
}

func TestDiffIntervals(t *testing.T) {
	a := []Interval{{10, 20}, {5, 8}}
	b := []Interval{{12, 15}, {1, 2}}
	d := DiffIntervals(a, b)
	if len(d) != 2 {
		t.Fatal("length")
	}
	// Raw diffs: [-5, 8] and [3, 7]; shift by +5 → [0,13], [8,12].
	if d[0].Lo != 0 || d[0].Hi != 13 || d[1].Lo != 8 || d[1].Hi != 12 {
		t.Errorf("diff intervals = %+v", d)
	}
	for _, iv := range d {
		if !iv.Valid() {
			t.Errorf("diff interval invalid: %+v", iv)
		}
	}
}

func TestDeriverBoundsContainTruth(t *testing.T) {
	cat := catalog.TPCD(0.01)
	w, err := workload.GenTPCD(cat, 150, 21)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat)

	// A small configuration space.
	cands := physical.EnumerateCandidates(cat, analysesOf(w), physical.CandidateOptions{Covering: true, Views: true})
	space := physical.GenerateSpace(cat, cands, 6, stats.NewRNG(3), physical.SpaceOptions{MinStructures: 2, MaxStructures: 6})
	if len(space) < 2 {
		t.Fatal("space too small")
	}

	d := NewDeriver(opt, space...)
	ivs := d.WorkloadIntervals(w)
	if len(ivs) != w.Size() {
		t.Fatalf("interval count %d", len(ivs))
	}
	// The actual cost of every query in every configuration must fall
	// inside its interval (the Section 6.1 guarantee).
	violations := 0
	for i, q := range w.Queries {
		if !ivs[i].Valid() {
			t.Fatalf("invalid interval %d: %+v", i, ivs[i])
		}
		for _, cfg := range space {
			c := opt.Cost(q.Analysis, cfg)
			if c < ivs[i].Lo-1e-9 || c > ivs[i].Hi+1e-9 {
				violations++
				if violations < 4 {
					t.Logf("query %d (%s): cost %v outside [%v, %v] in %s",
						i, q.Analysis.Kind, c, ivs[i].Lo, ivs[i].Hi, cfg.Name())
				}
			}
		}
	}
	if violations > 0 {
		t.Errorf("%d cost-bound violations", violations)
	}
}

func TestDeriverUpdateBoundsPerTemplate(t *testing.T) {
	cat := catalog.CRM()
	w, err := workload.GenCRM(cat, 400, 31)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat)
	cands := physical.EnumerateCandidates(cat, analysesOf(w), physical.CandidateOptions{})
	space := physical.GenerateSpace(cat, cands, 4, stats.NewRNG(5), physical.SpaceOptions{MinStructures: 2, MaxStructures: 5})
	d := NewDeriver(opt, space...)
	ivs := d.WorkloadIntervals(w)
	violations := 0
	for i, q := range w.Queries {
		if !q.Analysis.Kind.IsUpdate() {
			continue
		}
		for _, cfg := range space {
			c := opt.Cost(q.Analysis, cfg)
			if c < ivs[i].Lo-1e-9 || c > ivs[i].Hi+1e-9 {
				violations++
				if violations < 4 {
					t.Logf("DML %d: cost %v outside [%v, %v]", i, c, ivs[i].Lo, ivs[i].Hi)
				}
			}
		}
	}
	if violations > 0 {
		t.Errorf("%d DML bound violations", violations)
	}
}

func analysesOf(w *workload.Workload) []*sqlparse.Analysis {
	out := make([]*sqlparse.Analysis, len(w.Queries))
	for i, q := range w.Queries {
		out[i] = q.Analysis
	}
	return out
}

func TestDeriverBaseAccessor(t *testing.T) {
	cat := catalog.TPCD(0.01)
	opt := optimizer.New(cat)
	shared := physical.NewIndex("lineitem", []string{"l_orderkey"})
	a := physical.NewConfiguration("a", shared, physical.NewIndex("orders", []string{"o_orderkey"}))
	b := physical.NewConfiguration("b", shared)
	d := NewDeriver(opt, a, b)
	base := d.Base()
	if base.NumStructures() != 1 || !base.Has(shared.ID()) {
		t.Errorf("base should be the intersection: %v", base.Structures())
	}
}

package experiments

import (
	"fmt"
	"runtime"

	"physdes/internal/optimizer"
)

// AtomsRow is one point of the atomic what-if sharing curve: the full
// (query, configuration) cost surface of a k-candidate space evaluated once
// directly and once through the atom-sharing layer. AtomSharing returns a
// row only when the two surfaces matched bit-for-bit.
type AtomsRow struct {
	// K is the candidate-space size.
	K int
	// Queries is the workload subset size the surface is built over.
	Queries int
	// Pairs is Queries × K, the direct what-if bill.
	Pairs int64
	// DirectCalls is what the direct evaluation charged (== Pairs).
	DirectCalls int64
	// SharedCalls is what the atom-sharing evaluation charged the inner
	// optimizer: one call per distinct (query, atom) pair plus fallbacks.
	SharedCalls int64
	// Reduction is DirectCalls / SharedCalls.
	Reduction float64
	// AtomHits counts reassemblies served from the atom store.
	AtomHits int64
	// Atoms counts the distinct (query, atom) costings paid.
	Atoms int64
	// Fallbacks counts width-bound fallbacks to direct costing.
	Fallbacks int64
}

// AtomSharing measures the what-if call reduction of atomic-configuration
// sharing on the Table 2 regime: for each k, a perturbation space around a
// tuned configuration (heavily overlapping candidates, as a tuning tool
// emits) is costed over a workload subset, once with a plain optimizer and
// once through the atom memo (optimizer.NewCached), asserting
// bit-identical costs and reporting both call bills.
func AtomSharing(s *Scenario, ks []int, p Params) ([]AtomsRow, error) {
	p = p.withDefaults()
	w := subsample(s.W, 1200, p.Seed+9)
	par := runtime.GOMAXPROCS(0)

	rows := make([]AtomsRow, 0, len(ks))
	for _, k := range ks {
		configs := buildSpace(s, k, p.Seed+13)
		if len(configs) < 2 {
			return nil, fmt.Errorf("experiments: atoms: only %d configurations for k=%d", len(configs), k)
		}
		reqs := make([]optimizer.Request, 0, w.Size()*len(configs))
		for _, q := range w.Queries {
			for _, cfg := range configs {
				reqs = append(reqs, optimizer.Request{Analysis: q.Analysis, Config: cfg})
			}
		}

		direct := optimizer.New(s.Cat)
		want := direct.Batch(reqs, par)

		shared := optimizer.NewCached(optimizer.New(s.Cat))
		got := shared.Batch(reqs, par)

		for i := range want {
			if want[i] != got[i] {
				return nil, fmt.Errorf("experiments: atoms: k=%d cost surfaces diverged (sharing must be exact)", k)
			}
		}

		hits, misses, fallbacks := shared.AtomStats()
		row := AtomsRow{
			K:           len(configs),
			Queries:     w.Size(),
			Pairs:       int64(len(reqs)),
			DirectCalls: direct.Calls(),
			SharedCalls: shared.Inner().Calls(),
			AtomHits:    hits,
			Atoms:       misses,
			Fallbacks:   fallbacks,
		}
		if row.SharedCalls > 0 {
			row.Reduction = float64(row.DirectCalls) / float64(row.SharedCalls)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

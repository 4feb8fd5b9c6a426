package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestReductionsGolden pins the optimizer-call counts behind the README's
// call-reduction claims at Quick() scale: every warm-start row (the
// unchanged-workload rerun and the four drift windows) and the atom-sharing
// row at k=50. Call counts are deterministic, so any drift is a diff;
// wall-clock columns are left out. Regenerate with -update only when a
// change to the reductions is intended. The contract assertions run on the
// same rows, so a regenerated golden still has to show the reductions.
func TestReductionsGolden(t *testing.T) {
	p := Quick()
	var got strings.Builder

	rows, err := Warmstart(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+warmstartWindows {
		t.Fatalf("got %d warm-start rows, want %d (rerun + %d drift windows)", len(rows), 1+warmstartWindows, warmstartWindows)
	}
	for _, r := range rows {
		fmt.Fprintf(&got, "warmstart phase=%s window=%d k=%d calls=%d/%d sampled=%d/%d strata_reused=%d pilot_saved=%d reduction=%.17g regret=%.17g/%.17g\n",
			r.Phase, r.Window, r.K, r.ColdCalls, r.WarmCalls, r.ColdSampled, r.WarmSampled,
			r.StrataReused, r.PilotSaved, r.Reduction, r.ColdRegret, r.WarmRegret)
	}
	rerun := rows[0]
	if rerun.Phase != "rerun" {
		t.Fatalf("first row phase %q, want rerun", rerun.Phase)
	}
	if rerun.Reduction < 2 {
		t.Errorf("rerun reduction %.2f×, want ≥ 2× on an unchanged workload", rerun.Reduction)
	}
	if rerun.StrataReused == 0 || rerun.PilotSaved == 0 {
		t.Errorf("rerun reused %d strata, saved %d pilot probes: warm path did not engage",
			rerun.StrataReused, rerun.PilotSaved)
	}
	for _, r := range rows {
		if r.WarmRegret > r.ColdRegret {
			t.Errorf("%s window %d: warm regret %.4f > cold %.4f: savings bought a worse pick",
				r.Phase, r.Window, r.WarmRegret, r.ColdRegret)
		}
	}
	for i, r := range rows[1:] {
		if r.Phase != "drift" || r.Window != i {
			t.Errorf("row %d: phase %q window %d, want drift window %d", i+1, r.Phase, r.Window, i)
		}
		if r.Window == 0 && r.Reduction != 1 {
			t.Errorf("drift window 0 reduction %.2f×, want exactly 1× (empty prior is bit-identical to cold)", r.Reduction)
		}
		if r.Window > 0 && (r.Reduction <= 1 || r.StrataReused == 0) {
			t.Errorf("drift window %d: reduction %.2f× with %d strata reused, want > 1× with reuse",
				r.Window, r.Reduction, r.StrataReused)
		}
	}
	var table bytes.Buffer
	if err := PrintWarmstart(&table, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(table.Bytes(), []byte("rerun")) || !bytes.Contains(table.Bytes(), []byte("drift")) {
		t.Error("rendered warm-start table missing phase rows")
	}

	s, err := TPCDScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	atoms, err := AtomSharing(s, []int{50}, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range atoms {
		fmt.Fprintf(&got, "atoms k=%d queries=%d pairs=%d direct=%d shared=%d atoms=%d hits=%d fallbacks=%d reduction=%.17g\n",
			r.K, r.Queries, r.Pairs, r.DirectCalls, r.SharedCalls, r.Atoms, r.AtomHits, r.Fallbacks, r.Reduction)
		if r.DirectCalls != r.Pairs {
			t.Errorf("k=%d: direct bill %d != pair count %d", r.K, r.DirectCalls, r.Pairs)
		}
		if r.SharedCalls <= 0 || r.SharedCalls >= r.DirectCalls {
			t.Errorf("k=%d: shared bill %d not in (0, %d)", r.K, r.SharedCalls, r.DirectCalls)
		}
	}

	golden := filepath.Join("testdata", "reductions.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("call reductions diverged from %s\n--- got ---\n%s--- want ---\n%s", golden, got.String(), want)
	}
}

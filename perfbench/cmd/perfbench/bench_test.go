package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinyScale runs every code path of the benchmark in seconds.
var tinyScale = scale{
	TPCDStatements: 600,
	CRMStatements:  400,
	K:              6,
	SelectSeeds:    3,
	ConsSeeds:      1,
	JobSeeds:       2,
	CheckedJobs:    1,
	TracedOps:      2,
	SetupReps:      2,
	WhatIfPairs:    50,
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEveryMetricEmitted runs each workload at tiny scale, untraced and
// traced, and checks that the last output line names exactly the metrics
// BENCHMARK.json lists for that mode, each with its unit, and that every
// output check passed.
func TestEveryMetricEmitted(t *testing.T) {
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			cfg := config{Workload: wl.Name, Seed: 3, Seconds: 0.01, Trace: trace, SpansDir: t.TempDir(), Scale: tinyScale}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			var buf bytes.Buffer
			if err := writeReport(&buf, cfg, rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var got struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", wl.Name, trace, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", wl.Name, trace, got.Correct, got.Attempted, got.Failed, rep.Failures)
			}
			for name, unit := range want {
				m, ok := got.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, name)
				case m.Unit != unit || m.Value == nil:
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.Name, trace, name, m, unit)
				}
			}
			for name := range got.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", wl.Name, trace, name)
				}
			}
		}
	}
}

// TestSeedChangesInputs checks that the seed argument reaches the inputs:
// another seed gives other statements, selection seeds and job seeds, and
// the same seed gives the same ones.
func TestSeedChangesInputs(t *testing.T) {
	sqlOf := func(seed uint64) ([]string, []uint64) {
		wseed, seeds := deriveSeeds(seed, tinyScale.SelectSeeds)
		var st setupTimes
		env, err := setupLibrary(tinyScale.TPCDStatements, tinyScale.K, wseed, &st)
		if err != nil {
			t.Fatal(err)
		}
		var sqls []string
		for _, q := range env.w.Queries {
			sqls = append(sqls, q.SQL)
		}
		return sqls, seeds
	}
	a, sa := sqlOf(1)
	a2, sa2 := sqlOf(1)
	b, sb := sqlOf(2)
	if strings.Join(a, "\n") != strings.Join(a2, "\n") || !equalSeeds(sa, sa2) {
		t.Error("the same seed gave different inputs")
	}
	if strings.Join(a, "\n") == strings.Join(b, "\n") {
		t.Error("seeds 1 and 2 gave the same statements")
	}
	if equalSeeds(sa, sb) {
		t.Error("seeds 1 and 2 gave the same selection seeds")
	}
	_, ja := jobSeeds(1, 2)
	_, jb := jobSeeds(2, 2)
	if equalSeeds(ja[0], jb[0]) {
		t.Error("seeds 1 and 2 gave the same job seeds")
	}
}

func equalSeeds(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

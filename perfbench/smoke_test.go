package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// Every workload runs end to end at tiny sizes, traced and untraced, with
// every output gated, and reports every contract metric.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rc := runConfig{seed: 3, seconds: 300 * time.Millisecond, trace: trace, smoke: true, out: t.TempDir()}
			rep, err := runWorkload(context.Background(), w, rc, fingerprint{})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !rep.correct() {
				t.Fatalf("%s trace=%v: incorrect: failures %v, self-check %s", w, trace, rep.Failures, rep.SelfCheck)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			line := resultLine(rep, trace)
			got := line["metrics"].(map[string]any)
			for _, s := range specs {
				if _, ok := got[s.name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, s.name)
				}
			}
			if len(got) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(got), len(specs))
			}
			if !trace {
				for _, name := range []string{"predict_p99_ms", "max_rate_rps"} {
					if _, ok := rep.get(name); !ok {
						t.Errorf("%s: unbounded metric %s not reported", w, name)
					}
				}
			}
		}
	}
}

func TestFitAlignVisitsTheBell5Cone(t *testing.T) {
	rc := runConfig{seed: 9, seconds: 0, trace: true, smoke: true, out: t.TempDir()}
	rep, err := runWorkload(context.Background(), "fit-align", rc, fingerprint{})
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := rep.get("mkl.candidates"); m.Value != 52 {
		t.Fatalf("fit-align visited %v candidates per fit, want Bell(5) = 52", m.Value)
	}
}

// BENCHMARK.json and the metric tables of this program must agree.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for i, w := range bj.Workloads {
		if i >= len(workloads) || w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q", i, w.Name)
		}
	}
}

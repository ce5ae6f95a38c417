package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload briefly, traced, and checks the
// benchmark's sanity gates: every response correct, every declared
// metric printed with its declared unit, no evaluation in service-hot's
// timed phase, and no cache hit on a cold workload's timed keys.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the three workloads")
	}
	wantE2E, wantLayer := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var diag bytes.Buffer
			res, err := execute(context.Background(), w, pinSeed, 1, true, &diag)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 || res.perLayer["error_rate"].Value != 0 {
				t.Errorf("correct=%t failed=%d of %d\n%s", res.correct, res.failed, res.attempted, diag.String())
			}
			for traced, want := range map[bool]map[string]string{false: wantE2E, true: wantLayer} {
				var out bytes.Buffer
				if err := report(&out, res, traced); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("traced=%t: %d metrics, BENCHMARK.json declares %d", traced, len(last.Metrics), len(want))
				}
				for name, unit := range want {
					if m, ok := last.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("traced=%t: metric %s = %+v, want unit %q", traced, name, m, unit)
					}
				}
			}
			if res.hot {
				if evals := res.delta["fsserve_evaluations_total"]; evals != 0 {
					t.Errorf("service-hot timed phase ran %v evaluations", evals)
				}
			} else if res.timedCacheHits != 0 {
				t.Errorf("%d timed requests of a cold workload were cache hits", res.timedCacheHits)
			}
		})
	}
}

func TestInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, long := w.gen(7, minTimed), w.gen(7, minTimed), w.gen(7, 2*minTimed)
		for i, k := range a.timed {
			if !bytes.Equal(a.keys[k].body, b.keys[b.timed[i]].body) || !bytes.Equal(a.keys[k].body, long.keys[long.timed[i]].body) {
				t.Fatalf("%s: timed request %d differs between generations", w.name, i)
			}
		}
		if len(a.fill) > 0 {
			continue
		}
		keys := map[string]bool{}
		for _, k := range append(append([]int{}, a.timed...), a.warm...) {
			if keys[a.keys[k].key] {
				t.Fatalf("%s: key %d repeats", w.name, k)
			}
			keys[a.keys[k].key] = true
		}
	}
}

func TestParseProm(t *testing.T) {
	sums := map[string]float64{"fsserve_evaluations_total": 1}
	text := `# HELP fsserve_evaluations_total Model evaluations actually performed.
# TYPE fsserve_evaluations_total counter
fsserve_evaluations_total 4
# TYPE fsserve_degraded_total counter
fsserve_cluster_forwards_total{peer="127.0.0.1:1",outcome="ok"} 2
fsserve_cluster_forwards_total{peer="127.0.0.1:2",outcome="hedged"} 3
`
	if err := parseProm(strings.NewReader(text), sums); err != nil {
		t.Fatal(err)
	}
	if d, ok := sums["fsserve_degraded_total"]; !ok || d != 0 {
		t.Fatalf("declared family without samples: %v, %t", d, ok)
	}
	if sums["fsserve_evaluations_total"] != 5 || sums["fsserve_cluster_forwards_total"] != 5 {
		t.Fatalf("sums = %v", sums)
	}
}

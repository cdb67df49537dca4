package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke run checks.
type benchmarkSpec struct {
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

// TestSmoke runs every workload for a few seconds, untraced and traced,
// and checks that the output checks pass with no failed op and that every
// metric BENCHMARK.json declares is printed with its declared unit. The
// unlisted serve-drift workload runs too, so it stays runnable.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs build laer-serve and take about a minute")
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "laer-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "laermoe/cmd/laer-serve").CombinedOutput(); err != nil {
		t.Fatalf("building laer-serve: %v\n%s", err, out)
	}
	workloads := []string{"serve-drift"}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(options{
				workload: w, seed: 7, seconds: 2, trace: traced,
				serveBin: bin, workDir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d ops failed", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics printed, BENCHMARK.json declares %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (trace %v): metric %s printed %v with unit %q, want unit %q", w, traced, m.Name, ok, got.Unit, m.Unit)
				}
			}
		}
	}
}

package executor

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"laermoe/internal/metrics"
	"laermoe/internal/planner"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/iteration_bits.txt")

// liteLayout is a hand-built multi-replica layout of tinyArch on 2x4
// devices (two slots per device): expert 0 holds six replicas, two of them
// stacked on device 4; expert 3 lives on node 0 only, so node-1 ranks split
// its tokens globally.
func liteLayout() *planner.Layout {
	slots := [][2]int{{0, 1}, {0, 2}, {0, 3}, {3, 2}, {0, 0}, {1, 1}, {2, 1}, {0, 2}}
	l := planner.NewLayout(tinyArch.Experts, len(slots))
	for d, s := range slots {
		l.A[s[0]][d]++
		l.A[s[1]][d]++
	}
	return l
}

// litePlans routes the same generated traffic as tinyPlans through the
// lite router over liteLayout.
func litePlans(t *testing.T, topo *topology.Topology, seed int64) []LayerPlan {
	t.Helper()
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices: topo.N(), Experts: tinyArch.Experts, Layers: tinyArch.Layers,
		TokensPerDevice: 1024, TopK: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	layout := liteLayout()
	plans := make([]LayerPlan, tinyArch.Layers)
	for l, r := range gen.Step() {
		plans[l] = LayerPlan{Layout: layout, Dispatch: planner.LiteRouting(r, layout, topo)}
	}
	return plans
}

type pinCase struct {
	name  string
	cfg   Config
	plans []LayerPlan
}

// pinCases spans the three paradigms, one and three micro-batches, no and
// all communication optimizations, EP-routed and lite-routed plans, plus a
// straggler topology and an attention-TP configuration.
func pinCases(t *testing.T) []pinCase {
	topo := topology.New(2, 4)
	slow := topology.New(2, 4)
	if err := slow.SetSlowdown(3, 2.0); err != nil {
		t.Fatal(err)
	}
	plans := map[string][]LayerPlan{"ep": tinyPlans(t, topo, 21), "lite": litePlans(t, topo, 21)}
	var out []pinCase
	for _, routing := range []string{"ep", "lite"} {
		for _, p := range []Paradigm{ParadigmFSEP, ParadigmFSDPEP, ParadigmResident} {
			for _, mb := range []int{1, 3} {
				for _, opts := range []struct {
					name string
					comm CommOpts
				}{{"none", CommOpts{}}, {"all", AllCommOpts()}} {
					cfg := tinyConfig(topo)
					cfg.Paradigm, cfg.MicroBatches, cfg.Comm = p, mb, opts.comm
					out = append(out, pinCase{fmt.Sprintf("%s/%s/mb%d/%s", routing, p, mb, opts.name), cfg, plans[routing]})
				}
			}
		}
		straggler := tinyConfig(slow)
		out = append(out, pinCase{routing + "/straggler", straggler, plans[routing]})
		tp := tinyConfig(topo)
		tp.Paradigm, tp.TPDegree = ParadigmResident, 4
		out = append(out, pinCase{routing + "/resident-tp4", tp, plans[routing]})
	}
	return out
}

// iterationFields lists every float an Iteration reports, by name.
func iterationFields(it *metrics.Iteration) ([]string, []float64) {
	bd := it.Breakdown
	names := []string{"Time", "Attention", "Gate", "Dispatcher", "Expert", "A2A", "Prefetch", "GradSync", "TPComm", "Other"}
	vals := []float64{it.Time, bd.Attention, bd.Gate, bd.Dispatcher, bd.Expert, bd.A2A, bd.Prefetch, bd.GradSync, bd.TPComm, bd.Other}
	for l, v := range it.PerLayerImbalance {
		names = append(names, fmt.Sprintf("Imbalance%d", l))
		vals = append(vals, v)
	}
	return names, vals
}

// TestRunIterationBitPin pins RunIteration at full precision: the
// float64 bits of the makespan, of every Breakdown category and of every
// per-layer imbalance, for each pinCase. The goldens print three
// significant figures and cannot see a low-order bit move; this table
// can. Regenerate with -update only for an intended timing-model change.
func TestRunIterationBitPin(t *testing.T) {
	var b strings.Builder
	for _, c := range pinCases(t) {
		it, err := RunIteration(c.cfg, c.plans)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b.WriteString(c.name)
		names, vals := iterationFields(it)
		for i, v := range vals {
			fmt.Fprintf(&b, " %s=%016x", names[i], math.Float64bits(v))
		}
		b.WriteByte('\n')
	}
	path := filepath.Join("testdata", "iteration_bits.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d pinned lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("bits moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}

package training

import (
	"encoding/json"
	"math/rand"
	"testing"

	"laermoe/internal/faults"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// TestIncrementalDecisionsMatchFull is the tentpole's end-to-end pin:
// across every replan policy, every drift model and a fault-injected
// cluster, a run with the drift trackers engaged must produce a report —
// decisions, summaries, timings, everything — byte-identical to the same
// run with incremental planning disabled. The trackers are an
// amortization of the observe→solve path, never a policy change.
func TestIncrementalDecisionsMatchFull(t *testing.T) {
	schedules := map[string]faults.Schedule{
		"steady": nil,
		"faulty": {
			{Epoch: 1, Iter: 0, Kind: faults.NodeFail, Node: 1},
			{Epoch: 2, Iter: 2, Kind: faults.NodeFail, Node: 2},
			{Epoch: 3, Iter: 0, Kind: faults.NodeJoin, Node: 1},
		},
	}
	for _, policy := range ReplanPolicies() {
		for _, drift := range []trace.DriftModel{trace.DriftStabilizing, trace.DriftBursty, trace.DriftMigration} {
			for name, sched := range schedules {
				cfg := onlineCfg(policy, drift)
				cfg.Faults = sched
				incremental, err := RunOnline(cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s incremental: %v", policy, drift, name, err)
				}
				cfg = onlineCfg(policy, drift)
				cfg.Faults = sched
				cfg.DisableIncremental = true
				full, err := RunOnline(cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s full: %v", policy, drift, name, err)
				}
				// PlannerTime is measured wall-clock — the one field that
				// legitimately differs between the two runs (it is what the
				// trackers improve).
				for i := range incremental.Epochs {
					incremental.Epochs[i].PlannerTime = 0
					full.Epochs[i].PlannerTime = 0
				}
				a, err := json.Marshal(incremental)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(full)
				if err != nil {
					t.Fatal(err)
				}
				if string(a) != string(b) {
					t.Errorf("%s/%s/%s: incremental and full runs diverge\nincremental: %s\nfull:        %s",
						policy, drift, name, a, b)
				}
			}
		}
	}
}

// TestIncrementalSolvesEngage checks the counters the laer-bench SLO gate
// asserts on: once a warm-policy run reaches steady state, later epochs
// must report solves that ran through the tracker, and a run with
// incremental planning disabled must report none.
func TestIncrementalSolvesEngage(t *testing.T) {
	p, err := NewOnlinePlanner(onlineCfg(ReplanWarm, trace.DriftStabilizing))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := ObservationGenerator(trace.GeneratorConfig{
		Devices: p.Devices(), Experts: p.Experts(), Layers: p.Layers(),
		TokensPerDevice: p.Setup().TokensPerDev, TopK: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var routing []*trace.RoutingMatrix
	totalInc, totalFull := 0, 0
	for epoch := 0; epoch < 4; epoch++ {
		routing = gen.StepInto(routing)
		if _, _, err := p.PlanEpoch(routing); err != nil {
			t.Fatal(err)
		}
		sum := p.Summarize()
		if got, want := sum.IncrementalSolves+sum.FullSolves, p.Layers(); got != want {
			t.Fatalf("epoch %d: %d solves counted for %d layers", epoch, got, want)
		}
		totalInc += sum.IncrementalSolves
		totalFull += sum.FullSolves
	}
	if totalInc == 0 {
		t.Error("warm run never took the incremental path")
	}
	if totalFull == 0 {
		t.Error("warm run never took the full path (the cold start must)")
	}

	cfg := onlineCfg(ReplanWarm, trace.DriftStabilizing)
	cfg.DisableIncremental = true
	pd, err := NewOnlinePlanner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := ObservationGenerator(trace.GeneratorConfig{
		Devices: pd.Devices(), Experts: pd.Experts(), Layers: pd.Layers(),
		TokensPerDevice: pd.Setup().TokensPerDev, TopK: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	routing = gen2.StepInto(routing[:0])
	if _, _, err := pd.PlanEpoch(routing); err != nil {
		t.Fatal(err)
	}
	if sum := pd.Summarize(); sum.IncrementalSolves != 0 {
		t.Errorf("disabled run reported %d incremental solves", sum.IncrementalSolves)
	}
}

// TestPlanEpochMatchesSplitSteps pins the single-dispatch epoch driver to
// the split PlanBoundary+Observe sequence: same decisions, same summary,
// for every policy over a drifting stream. The run is long enough for the
// predictive policy's trust streak to mature, so acted boundary decisions
// are compared too — PlanEpoch interleaves the observation step before
// the boundary decisions are assembled, and the reported forecast error
// must still be the boundary-time value the split sequence reports.
func TestPlanEpochMatchesSplitSteps(t *testing.T) {
	for _, policy := range ReplanPolicies() {
		sawBoundary := false
		merged, err := NewOnlinePlanner(onlineCfg(policy, trace.DriftBursty))
		if err != nil {
			t.Fatal(err)
		}
		split, err := NewOnlinePlanner(onlineCfg(policy, trace.DriftBursty))
		if err != nil {
			t.Fatal(err)
		}
		genCfg := trace.GeneratorConfig{
			Devices: merged.Devices(), Experts: merged.Experts(), Layers: merged.Layers(),
			TokensPerDevice: merged.Setup().TokensPerDev, TopK: 2, Seed: 17,
		}
		genA, err := ObservationGenerator(genCfg)
		if err != nil {
			t.Fatal(err)
		}
		genB, err := ObservationGenerator(genCfg)
		if err != nil {
			t.Fatal(err)
		}
		var ra, rb []*trace.RoutingMatrix
		for epoch := 0; epoch < 6; epoch++ {
			if epoch > 0 {
				dc := trace.DriftConfig{Model: trace.DriftMigration, Rate: 0.1}
				if err := genA.ApplyDrift(dc); err != nil {
					t.Fatal(err)
				}
				if err := genB.ApplyDrift(dc); err != nil {
					t.Fatal(err)
				}
			}
			ra = genA.StepInto(ra)
			rb = genB.StepInto(rb)

			mb, mo, err := merged.PlanEpoch(ra)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := split.PlanBoundary()
			if err != nil {
				t.Fatal(err)
			}
			so, err := split.Observe(rb)
			if err != nil {
				t.Fatal(err)
			}
			am, _ := json.Marshal(struct {
				B, O []LayerDecision
				S    EpochSummary
			}{mb, mo, merged.Summarize()})
			as, _ := json.Marshal(struct {
				B, O []LayerDecision
				S    EpochSummary
			}{sb, so, split.Summarize()})
			if string(am) != string(as) {
				t.Fatalf("%s epoch %d: PlanEpoch diverges from split steps\nmerged: %s\nsplit:  %s",
					policy, epoch, am, as)
			}
			if len(mb) > 0 {
				sawBoundary = true
			}
		}
		if policy == ReplanPredictive && !sawBoundary {
			t.Fatalf("%s: no boundary ever acted — the comparison never covered a predictive boundary decision", policy)
		}
	}
}

// TestFoldLostRowsConservesTokens is the property the elastic observation
// path rests on: folding dead devices' rows onto the survivors preserves
// every expert's total load and zeroes the dead rows, under randomized
// matrices and loss patterns.
func TestFoldLostRowsConservesTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		nodes := 2 + rng.Intn(3)
		perNode := 2 + rng.Intn(3)
		topo := topology.New(nodes, perNode)
		n := topo.N()
		e := 4 + rng.Intn(24)
		r := trace.NewRoutingMatrix(n, e)
		for i := 0; i < n; i++ {
			for j := 0; j < e; j++ {
				r.R[i][j] = rng.Intn(64)
			}
		}
		before := r.ExpertLoads()
		total := r.Total()

		// Fail up to nodes-1 nodes so at least one survives.
		for k := rng.Intn(nodes); k > 0; k-- {
			node := rng.Intn(nodes)
			if topo.Node(0) == node && topo.NumAvailable() <= perNode {
				continue
			}
			_ = topo.RemoveNode(node)
		}
		if topo.NumAvailable() == 0 {
			continue
		}
		FoldLostRows(r, topo)

		after := r.ExpertLoads()
		for j := 0; j < e; j++ {
			if before[j] != after[j] {
				t.Fatalf("trial %d expert %d: load %v -> %v across fold", trial, j, before[j], after[j])
			}
		}
		if got := r.Total(); got != total {
			t.Fatalf("trial %d: total %d -> %d across fold", trial, total, got)
		}
		for d := 0; d < n; d++ {
			if topo.Available(d) {
				continue
			}
			for j, v := range r.R[d] {
				if v != 0 {
					t.Fatalf("trial %d: dead device %d still holds %d tokens of expert %d", trial, d, v, j)
				}
			}
		}
	}
}

// TestPlanEpochAllocs pins the steady-state allocations of one PlanEpoch
// on the 32-layer Mixtral fixture, re-planning the same routing: the
// predictive policy reuses one synthesized matrix and one realized-load
// vector per layer instead of allocating them at every acted boundary.
func TestPlanEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	for _, tc := range []struct {
		policy ReplanPolicy
		max    float64
	}{
		{ReplanWarm, 40},
		{ReplanPredictive, 170},
	} {
		cfg := onlineCfg(tc.policy, trace.DriftStabilizing)
		cfg.Parallelism = 1
		p, err := NewOnlinePlanner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := ObservationGenerator(trace.GeneratorConfig{
			Devices: p.Devices(), Experts: p.Experts(), Layers: p.Layers(),
			TokensPerDevice: p.Setup().TokensPerDev, TopK: 2, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		routing := gen.StepInto(nil)
		var boundary []LayerDecision
		for epoch := 0; epoch < 4; epoch++ {
			if boundary, _, err = p.PlanEpoch(routing); err != nil {
				t.Fatal(err)
			}
		}
		if tc.policy == ReplanPredictive && len(boundary) != p.Layers() {
			t.Fatalf("predictive: %d of %d layers acted on a forecast; the pin needs every boundary acted", len(boundary), p.Layers())
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := p.PlanEpoch(routing); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per PlanEpoch", tc.policy, allocs)
		if allocs > tc.max {
			t.Errorf("%s: %.0f allocs per PlanEpoch, want at most %.0f", tc.policy, allocs, tc.max)
		}
	}
}

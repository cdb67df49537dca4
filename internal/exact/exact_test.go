package exact

import (
	"testing"

	"laermoe/internal/planner"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

func smallParams() planner.CostParams {
	return planner.CostParams{TokenBytes: 8192, ExpertFLOPsPerToken: 352e6, FLOPS: 140e12}
}

func smallMatrix(seed int64) *trace.RoutingMatrix {
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices: 4, Experts: 4, Layers: 1, TokensPerDevice: 512, TopK: 2, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	return gen.Step()[0]
}

// TestGreedyNearExact reproduces the paper's justification for the greedy
// planner: on instances small enough for exhaustive search, the greedy
// solution's cost stays within 25% of the best found by enumeration.
func TestGreedyNearExact(t *testing.T) {
	topo := topology.New(2, 2)
	for seed := int64(0); seed < 4; seed++ {
		r := smallMatrix(seed)
		best, err := Search(r, topo, 2, smallParams())
		if err != nil {
			t.Fatal(err)
		}
		greedy := planner.NewSolver(topo, 2, smallParams(), planner.DefaultSolverOptions())
		sol, err := greedy.Solve(r)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Cost() < best.Cost-1e-12 {
			t.Errorf("seed %d: greedy (%.6f) beat 'exact' (%.6f); exact search is broken", seed, sol.Cost(), best.Cost)
		}
		if sol.Cost() > best.Cost*1.25 {
			t.Errorf("seed %d: greedy cost %.6f more than 25%% above exact %.6f", seed, sol.Cost(), best.Cost)
		}
	}
}

func TestExactSolutionValid(t *testing.T) {
	topo := topology.New(2, 2)
	r := smallMatrix(7)
	best, err := Search(r, topo, 2, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := best.Layout.Validate(2, true); err != nil {
		t.Errorf("exact layout invalid: %v", err)
	}
	if err := best.Dispatch.Validate(r, best.Layout); err != nil {
		t.Errorf("exact dispatch invalid: %v", err)
	}
	if best.Candidates == 0 {
		t.Error("no layouts enumerated")
	}
}

func TestSearchRejectsLargeInstances(t *testing.T) {
	topo := topology.Default() // 32 devices: way over budget
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices: 32, Experts: 8, Layers: 1, TokensPerDevice: 128, TopK: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Search(gen.Step()[0], topo, 2, smallParams()); err == nil {
		t.Error("oversized instance accepted")
	}
}

// TestRebalanceDispatchImproves: local search must never increase cost and
// must reduce it for an obviously unbalanced dispatch.
func TestRebalanceDispatchImproves(t *testing.T) {
	topo := topology.New(1, 4)
	layout := planner.NewLayout(1, 4)
	for d := 0; d < 4; d++ {
		layout.A[0][d] = 1
	}
	r := trace.NewRoutingMatrix(4, 1)
	r.R[0][0] = 1000
	// All tokens on one replica.
	unbalanced := planner.NewDispatch(4, 1, []planner.Assignment{
		{Src: 0, Expert: 0, Dst: 0, Tokens: 1000},
	})
	before := planner.TimeCost(unbalanced, topo, smallParams())
	refined := RebalanceDispatch(unbalanced, layout, topo, smallParams(), 64)
	after := planner.TimeCost(refined, topo, smallParams())
	if after >= before {
		t.Errorf("rebalance did not improve cost: %.6f -> %.6f", before, after)
	}
	if err := refined.Validate(r, layout); err != nil {
		t.Errorf("refined dispatch invalid: %v", err)
	}
	loads := refined.Loads()
	maxLoad := 0
	for _, v := range loads {
		if v > maxLoad {
			maxLoad = v
		}
	}
	if maxLoad > 500 {
		t.Errorf("max load after rebalance = %d, want <= 500", maxLoad)
	}
}

func TestCombinations(t *testing.T) {
	got := combinations(4, 2)
	if len(got) != 6 {
		t.Fatalf("C(4,2) produced %d subsets, want 6", len(got))
	}
	seen := map[[2]int]bool{}
	for _, s := range got {
		if len(s) != 2 || s[0] >= s[1] {
			t.Fatalf("bad subset %v", s)
		}
		seen[[2]int{s[0], s[1]}] = true
	}
	if len(seen) != 6 {
		t.Error("duplicate subsets")
	}
}

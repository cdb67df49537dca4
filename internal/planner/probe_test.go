package planner

import (
	"testing"

	"laermoe/internal/stats"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// TestProbeSolverBalance measures how close the solver gets to perfect
// balance on freshly generated matrices (no asynchrony), to separate
// solver quality from planning staleness.
func TestProbeSolverBalance(t *testing.T) {
	topo := topology.Default()
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices: 32, Experts: 8, Layers: 1, TokensPerDevice: 16384, TopK: 2,
		Skew: 1.0, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(topo, 2, CostParams{TokenBytes: 8192, ExpertFLOPsPerToken: 352e6, FLOPS: 140e12}, DefaultSolverOptions())
	for i := 0; i < 5; i++ {
		r := gen.Step()[0]
		sol, err := s.Solve(r)
		if err != nil {
			t.Fatal(err)
		}
		d := LiteTraffic(r, sol.Layout, topo)
		static, _ := EPRouting(r, 2)
		reps := sol.Layout.ReplicaVector()
		t.Logf("iter %d: solver imbalance %.3f (static %.3f), reps=%v, cross-node %.1f%%",
			i, stats.Imbalance(loadsOf(d)), stats.Imbalance(loadsOf(static)), reps,
			100*float64(d.CrossNodeTokens(topo))/float64(r.Total()))
	}
}

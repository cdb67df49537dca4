package planner

import (
	"testing"

	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// warmSequence builds a drifting multi-epoch fixture: one generator, one
// routing matrix per epoch.
func warmSequence(t testing.TB, epochs int, n, e, tokens int, seed int64) []*trace.RoutingMatrix {
	t.Helper()
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices: n, Experts: e, Layers: 1, TokensPerDevice: tokens, TopK: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*trace.RoutingMatrix, epochs)
	for i := range out {
		if i > 0 {
			if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftMigration, Rate: 0.4}); err != nil {
				t.Fatal(err)
			}
		}
		out[i] = gen.Step()[0]
	}
	return out
}

// TestSolveWarmRecycleMatchesFresh: a solver whose caller recycles dropped
// layouts through the scratch free list must produce exactly the layouts
// and costs of a solver that never recycles, across a multi-epoch warm
// chain — recycled buffers must never leak state into a later solve.
func TestSolveWarmRecycleMatchesFresh(t *testing.T) {
	topo := topology.Default()
	rs := warmSequence(t, 6, topo.N(), 16, 4096, 3)
	mk := func() *Solver { return NewSolver(topo, 4, testParams(), DefaultSolverOptions()) }
	recycler, fresh := mk(), mk()

	var recLayout, freshLayout, snapshot *Layout
	var recLoads, freshLoads []float64
	for i, r := range rs {
		a, err := recycler.SolveWarm(r, WarmStart{Prev: recLayout, PrevLoads: recLoads})
		if err != nil {
			t.Fatal(err)
		}
		// The layout installed after the previous epoch must not have been
		// clobbered by this solve's scratch reuse.
		if snapshot != nil && !recLayout.Equal(snapshot) {
			t.Fatalf("epoch %d: solve mutated the caller's live layout", i)
		}
		b, err := fresh.SolveWarm(r, WarmStart{Prev: freshLayout, PrevLoads: freshLoads})
		if err != nil {
			t.Fatal(err)
		}
		if !a.Layout.Equal(b.Layout) || a.Cost() != b.Cost() || a.Migrations != b.Migrations {
			t.Fatalf("epoch %d: recycling solver diverged (cost %g vs %g, migrations %d vs %d)",
				i, a.Cost(), b.Cost(), a.Migrations, b.Migrations)
		}
		if err := a.Layout.Validate(recycler.C, true); err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		// The recycling caller drops its previous layout when replacing it;
		// the fresh caller just forgets it. Epoch 0's Prev is nil.
		if a.Layout != recLayout {
			recycler.Recycle(recLayout)
			recLayout = a.Layout
			recLoads = r.ExpertLoads()
		}
		snapshot = recLayout.Clone()
		if b.Layout != freshLayout {
			freshLayout = b.Layout
			freshLoads = r.ExpertLoads()
		}
	}
}

// TestSolveWarmScratchSteadyStateAllocs is the warm-solve analogue of the
// trace package's zero-allocation guard: once the scratch arena is warm
// and the caller recycles dropped layouts, a SolveWarm call may allocate
// only its Solution — nothing proportional to the problem size.
func TestSolveWarmScratchSteadyStateAllocs(t *testing.T) {
	topo := topology.Default()
	rs := warmSequence(t, 2, topo.N(), 16, 4096, 7)
	s := NewSolver(topo, 4, testParams(), DefaultSolverOptions())
	sol, err := s.Solve(rs[0])
	if err != nil {
		t.Fatal(err)
	}
	prev, prevLoads := sol.Layout, rs[0].ExpertLoads()
	// Warm the arena: one replanning solve sizes every scratch buffer and
	// primes the layout free list.
	for i := 0; i < 3; i++ {
		next, err := s.SolveWarm(rs[1], WarmStart{Prev: prev, PrevLoads: prevLoads})
		if err != nil {
			t.Fatal(err)
		}
		if next.Layout != prev {
			s.Recycle(prev)
			prev = next.Layout
			prevLoads = rs[1].ExpertLoadsInto(prevLoads)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		next, err := s.SolveWarm(rs[1], WarmStart{Prev: prev, PrevLoads: prevLoads})
		if err != nil {
			t.Fatal(err)
		}
		if next.Layout != prev {
			s.Recycle(prev)
			prev = next.Layout
			prevLoads = rs[1].ExpertLoadsInto(prevLoads)
		}
	})
	// The Solution itself is the only permitted allocation.
	if allocs > 1 {
		t.Fatalf("steady-state SolveWarm allocates %.1f objects per call, want <= 1 (the Solution)", allocs)
	}
}

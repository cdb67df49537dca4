package planner

import (
	"math/rand"
	"testing"

	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// Property-based invariant tests: for randomized clusters, capacities and
// routing traces, every artifact the planner produces must satisfy the
// paper's structural constraints —
//
//   - replica-count bounds: every expert keeps at least one replica and
//     the layout uses exactly the N*C replica slots (Eq. 3 equality);
//   - per-GPU capacity: no device hosts more than C replicas;
//   - full coverage: every expert is restored somewhere, and the token
//     dispatch conserves the routing matrix exactly;
//   - cost consistency: the solver's incremental (streamed) cost equals a
//     from-scratch evaluation of the same layout, bit for bit, for both
//     the cold and the warm-started paths.

// randomCase draws a random cluster/trace planning problem. Dimensions are
// constrained only by feasibility (N*C >= E so every expert fits).
type randomCase struct {
	topo *topology.Topology
	c    int
	gen  *trace.Generator
}

func drawCase(t *testing.T, rng *rand.Rand) randomCase {
	t.Helper()
	for {
		nodes := 1 + rng.Intn(4)
		gpus := 1 + rng.Intn(8)
		n := nodes * gpus
		c := 1 + rng.Intn(4)
		e := 2 + rng.Intn(15)
		if n*c < e {
			continue
		}
		topk := 1 + rng.Intn(4)
		if topk > e {
			topk = e
		}
		gen, err := trace.NewGenerator(trace.GeneratorConfig{
			Devices: n, Experts: e, Layers: 1,
			TokensPerDevice: 64 << rng.Intn(6), // 64..2048
			TopK:            topk,
			Skew:            0.25 + 2*rng.Float64(),
			Seed:            rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return randomCase{topo: topology.New(nodes, gpus), c: c, gen: gen}
	}
}

func (rc randomCase) solver(seed int64) *Solver {
	return NewSolver(rc.topo, rc.c, testParams(), SolverOptions{Epsilon: 2, Seed: seed})
}

// checkSolution enforces every structural invariant on one solution.
func checkSolution(t *testing.T, rc randomCase, r *trace.RoutingMatrix, sol *Solution, label string) {
	t.Helper()
	// Replica-count bounds, capacity and coverage (strict: Eq. 3 holds
	// with equality because allocation always uses every slot).
	if err := sol.Layout.Validate(rc.c, true); err != nil {
		t.Fatalf("%s: layout invariant violated: %v", label, err)
	}
	slots := 0
	for j := 0; j < sol.Layout.E; j++ {
		reps := sol.Layout.Replicas(j)
		if reps < 1 {
			t.Fatalf("%s: expert %d lost all replicas", label, j)
		}
		slots += reps
	}
	if want := rc.topo.N() * rc.c; slots != want {
		t.Fatalf("%s: layout uses %d slots, want %d", label, slots, want)
	}
	// Token conservation: the dispatch moves exactly the routed tokens to
	// devices that host the target expert.
	d := LiteRouting(r, sol.Layout, rc.topo)
	if err := d.Validate(r, sol.Layout); err != nil {
		t.Fatalf("%s: dispatch invariant violated: %v", label, err)
	}
	// Cost consistency: incremental streaming evaluation == from-scratch
	// evaluation of the same layout, bit for bit.
	if got := TimeCost(d, rc.topo, testParams()); got != sol.Cost() {
		t.Fatalf("%s: streamed cost %g != from-scratch cost %g", label, sol.Cost(), got)
	}
}

func TestInvariantsColdSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		rc := drawCase(t, rng)
		r := rc.gen.Step()[0]
		sol, err := rc.solver(int64(i)).Solve(r)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		checkSolution(t, rc, r, sol, "cold")
	}
}

func TestInvariantsWarmSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	drifts := []trace.DriftModel{trace.DriftStabilizing, trace.DriftBursty, trace.DriftMigration}
	for i := 0; i < 40; i++ {
		rc := drawCase(t, rng)
		s := rc.solver(int64(i))
		r0 := rc.gen.Step()[0]
		sol, err := s.Solve(r0)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		prevLoads := r0.ExpertLoads()
		// Chain three drifted warm re-solves, checking every hop.
		for hop := 0; hop < 3; hop++ {
			if err := rc.gen.ApplyDrift(trace.DriftConfig{
				Model: drifts[rng.Intn(len(drifts))],
				Rate:  0.1 + 0.9*rng.Float64(),
			}); err != nil {
				t.Fatal(err)
			}
			r := rc.gen.Step()[0]
			warm, err := s.SolveWarm(r, WarmStart{
				Prev:          sol.Layout,
				PrevLoads:     prevLoads,
				Threshold:     0.05 + rng.Float64(),
				MigrationCost: rng.Float64() * 1e-3,
			})
			if err != nil {
				t.Fatalf("case %d hop %d: %v", i, hop, err)
			}
			checkSolution(t, rc, r, warm, "warm")
			if warm.Migrations != MigrationMoves(sol.Layout, warm.Layout) {
				t.Fatalf("case %d hop %d: migration count %d != recount %d",
					i, hop, warm.Migrations, MigrationMoves(sol.Layout, warm.Layout))
			}
			sol, prevLoads = warm, r.ExpertLoads()
		}
	}
}

// TestInvariantsAllocationSchemes: both replica allocators fill exactly
// the slot budget with at least one replica per expert.
func TestInvariantsAllocationSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		rc := drawCase(t, rng)
		loads := rc.gen.Step()[0].ExpertLoads()
		n := rc.topo.N()
		for name, alloc := range map[string]func([]float64, int, int) ([]int, error){
			"pq": ReplicaAllocation, "even": EvenAllocation,
		} {
			reps, err := alloc(loads, n, rc.c)
			if err != nil {
				t.Fatalf("case %d %s: %v", i, name, err)
			}
			total := 0
			for j, v := range reps {
				if v < 1 {
					t.Fatalf("case %d %s: expert %d got %d replicas", i, name, j, v)
				}
				total += v
			}
			if total != n*rc.c {
				t.Fatalf("case %d %s: allocated %d slots, want %d", i, name, total, n*rc.c)
			}
		}
	}
}

// TestInvariantsWarmEqualsColdOnIdenticalLayout: evaluating the same
// layout through the warm path's keep candidate must reproduce the cold
// evaluation exactly (same routing, same layout, same accumulators).
func TestInvariantsWarmEqualsColdOnIdenticalLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		rc := drawCase(t, rng)
		r := rc.gen.Step()[0]
		cold, err := rc.solver(int64(i)).Solve(r)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		// Same loads, huge threshold: nothing moves, the previous layout
		// is kept and re-scored against the same routing.
		warm, err := rc.solver(int64(i)).SolveWarm(r, WarmStart{
			Prev:      cold.Layout,
			PrevLoads: r.ExpertLoads(),
			Threshold: 1e9,
		})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if warm.Layout != cold.Layout {
			t.Fatalf("case %d: keep path rebuilt the layout", i)
		}
		if warm.Cost() != cold.Cost() {
			t.Fatalf("case %d: warm keep cost %g != cold cost %g", i, warm.Cost(), cold.Cost())
		}
	}
}

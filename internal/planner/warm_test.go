package planner

import (
	"testing"

	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// warmPair returns a solved first-epoch layout plus a drifted second-epoch
// matrix from the same generator.
func warmPair(t *testing.T, seed int64) (*Solver, *trace.RoutingMatrix, *trace.RoutingMatrix, *Solution) {
	t.Helper()
	topo := topology.Default()
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices: topo.N(), Experts: 8, Layers: 1, TokensPerDevice: 8192, TopK: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	r0 := gen.Step()[0]
	if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftMigration, Rate: 0.6}); err != nil {
		t.Fatal(err)
	}
	r1 := gen.Step()[0]
	s := NewSolver(topo, 2, testParams(), DefaultSolverOptions())
	sol0, err := s.Solve(r0)
	if err != nil {
		t.Fatal(err)
	}
	return s, r0, r1, sol0
}

func TestSolveWarmNilPrevIsColdSolve(t *testing.T) {
	s, r0, _, sol0 := warmPair(t, 1)
	warm, err := s.SolveWarm(r0, WarmStart{})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh solver replays the cold path deterministically.
	s2 := NewSolver(s.Topo, s.C, s.Params, s.Opts)
	cold, err := s2.Solve(r0)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Layout.Equal(cold.Layout) || warm.Cost() != sol0.Cost() {
		t.Fatal("SolveWarm without a previous layout must match the cold solve")
	}
	if warm.Migrations != 0 || warm.MigrationTime != 0 {
		t.Fatalf("cold solve charged %d migrations", warm.Migrations)
	}
}

func TestSolveWarmKeepsLayoutWhenNothingMoved(t *testing.T) {
	s, r0, _, sol0 := warmPair(t, 2)
	warm, err := s.SolveWarm(r0, WarmStart{Prev: sol0.Layout, PrevLoads: r0.ExpertLoads()})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Layout != sol0.Layout {
		t.Fatal("identical loads must keep the previous layout in force")
	}
	if warm.Migrations != 0 {
		t.Fatalf("keeping the layout migrated %d replicas", warm.Migrations)
	}
}

func TestSolveWarmLayoutIsValidAndCostConsistent(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		s, r0, r1, sol0 := warmPair(t, 10+seed)
		warm, err := s.SolveWarm(r1, WarmStart{Prev: sol0.Layout, PrevLoads: r0.ExpertLoads()})
		if err != nil {
			t.Fatal(err)
		}
		if err := warm.Layout.Validate(s.C, true); err != nil {
			t.Fatalf("seed %d: warm layout invalid: %v", seed, err)
		}
		d := LiteRouting(r1, warm.Layout, s.Topo)
		if err := d.Validate(r1, warm.Layout); err != nil {
			t.Fatalf("seed %d: warm dispatch invalid: %v", seed, err)
		}
		// The incremental score must be bit-identical to evaluating the
		// materialized dispatch from scratch.
		if got := TimeCost(d, s.Topo, s.Params); got != warm.Cost() {
			t.Fatalf("seed %d: incremental cost %g != materialized cost %g", seed, warm.Cost(), got)
		}
		if warm.Migrations != MigrationMoves(sol0.Layout, warm.Layout) {
			t.Fatalf("seed %d: reported %d migrations, counted %d",
				seed, warm.Migrations, MigrationMoves(sol0.Layout, warm.Layout))
		}
	}
}

// TestSolveWarmMigratesLessThanScratch: across drifted epochs the warm
// start must move fewer replicas than re-solving from scratch, while
// staying within a modest cost factor of the scratch solution.
func TestSolveWarmMigratesLessThanScratch(t *testing.T) {
	warmMoves, scratchMoves := 0, 0
	var warmCost, scratchCost float64
	for seed := int64(0); seed < 8; seed++ {
		s, r0, r1, sol0 := warmPair(t, 30+seed)
		warm, err := s.SolveWarm(r1, WarmStart{Prev: sol0.Layout, PrevLoads: r0.ExpertLoads()})
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := NewSolver(s.Topo, s.C, s.Params, s.Opts).Solve(r1)
		if err != nil {
			t.Fatal(err)
		}
		warmMoves += warm.Migrations
		scratchMoves += MigrationMoves(sol0.Layout, scratch.Layout)
		warmCost += warm.Cost()
		scratchCost += scratch.Cost()
	}
	if warmMoves >= scratchMoves {
		t.Fatalf("warm start moved %d replicas, scratch %d — warm must migrate less", warmMoves, scratchMoves)
	}
	if warmCost > 1.25*scratchCost {
		t.Fatalf("warm cost %.4g more than 25%% above scratch cost %.4g", warmCost, scratchCost)
	}
}

// TestSolveWarmMigrationChargeBlocksChurn: with a prohibitive migration
// cost the solver must keep the previous layout rather than pay for moves.
func TestSolveWarmMigrationChargeBlocksChurn(t *testing.T) {
	s, r0, r1, sol0 := warmPair(t, 50)
	warm, err := s.SolveWarm(r1, WarmStart{
		Prev: sol0.Layout, PrevLoads: r0.ExpertLoads(), MigrationCost: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Layout != sol0.Layout || warm.Migrations != 0 {
		t.Fatal("prohibitive migration cost must keep the previous layout")
	}
}

// TestSolveWarmForecastErrorDiscount: the forecast-error discount shrinks
// the believed improvement, so with a migration charge a shaky forecast
// must keep the previous layout where a trusted one migrates — and a zero
// error must reproduce the undiscounted score exactly.
func TestSolveWarmForecastErrorDiscount(t *testing.T) {
	s, r0, r1, sol0 := warmPair(t, 80)
	base := WarmStart{Prev: sol0.Layout, PrevLoads: r0.ExpertLoads()}

	trusted, err := s.SolveWarm(r1, base)
	if err != nil {
		t.Fatal(err)
	}
	zeroErr := base
	zeroErr.ForecastError = 0
	same, err := s.SolveWarm(r1, zeroErr)
	if err != nil {
		t.Fatal(err)
	}
	if !same.Layout.Equal(trusted.Layout) || same.Cost() != trusted.Cost() {
		t.Fatal("ForecastError 0 must reproduce the undiscounted solve")
	}
	neg := base
	neg.ForecastError = -3
	clamped, err := s.SolveWarm(r1, neg)
	if err != nil {
		t.Fatal(err)
	}
	if !clamped.Layout.Equal(trusted.Layout) {
		t.Fatal("negative ForecastError must clamp to the undiscounted solve")
	}
	if trusted.Migrations == 0 {
		t.Fatal("fixture needs a drift that actually migrates")
	}

	// Charge migration at just under the trusted improvement per move: the
	// trusted solve still migrates, but any sizable forecast error
	// discounts the improvement below the charge and keeps Prev.
	sc := routePool.Get().(*routeScratch)
	keepCost := evalLayoutCost(r1, sol0.Layout, s.Topo, s.Params, sc)
	routePool.Put(sc)
	improvement := keepCost - trusted.Cost()
	if improvement <= 0 {
		t.Fatal("fixture needs a strictly improving migration")
	}
	charge := 0.9 * improvement / float64(trusted.Migrations)
	charged := base
	charged.MigrationCost = charge
	still, err := s.SolveWarm(r1, charged)
	if err != nil {
		t.Fatal(err)
	}
	if still.Migrations == 0 {
		t.Fatal("charge below the improvement must still migrate")
	}
	shaky := charged
	shaky.ForecastError = 50 // discount ~1/51: believed improvement falls far below the charge
	kept, err := s.SolveWarm(r1, shaky)
	if err != nil {
		t.Fatal(err)
	}
	if kept.Layout != sol0.Layout || kept.Migrations != 0 {
		t.Fatal("a shaky forecast must not pay the migration charge")
	}
}

func TestSolveWarmShapeErrors(t *testing.T) {
	s, r0, _, sol0 := warmPair(t, 60)
	small := trace.NewRoutingMatrix(r0.N, r0.E-1)
	if _, err := s.SolveWarm(small, WarmStart{Prev: sol0.Layout}); err == nil {
		t.Fatal("mismatched expert count accepted")
	}
	if _, err := s.SolveWarm(r0, WarmStart{Prev: sol0.Layout, PrevLoads: []float64{1}}); err == nil {
		t.Fatal("mismatched previous loads accepted")
	}
}

func TestMigrationMoves(t *testing.T) {
	prev := NewLayout(2, 2)
	prev.A[0][0], prev.A[1][1] = 1, 1
	next := NewLayout(2, 2)
	next.A[0][1], next.A[1][1] = 1, 1
	if got := MigrationMoves(prev, next); got != 1 {
		t.Fatalf("MigrationMoves = %d, want 1", got)
	}
	if got := MigrationMoves(prev, prev); got != 0 {
		t.Fatalf("MigrationMoves(self) = %d, want 0", got)
	}
}

// TestSolveWarmNegativeThresholdMovesEverything: a negative threshold
// re-places every expert whose load changed at all (the documented escape
// from the zero-means-default trap).
func TestSolveWarmNegativeThresholdMovesEverything(t *testing.T) {
	s, r0, r1, sol0 := warmPair(t, 70)
	strict, err := s.SolveWarm(r1, WarmStart{Prev: sol0.Layout, PrevLoads: r0.ExpertLoads(), Threshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	// With every expert movable the incremental solve mirrors the cold
	// candidate set, so its cost can only improve on a loose threshold's.
	loose, err := s.SolveWarm(r1, WarmStart{Prev: sol0.Layout, PrevLoads: r0.ExpertLoads(), Threshold: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Cost() > loose.Cost() {
		t.Fatalf("negative threshold cost %g worse than keep-everything cost %g", strict.Cost(), loose.Cost())
	}
	if err := strict.Layout.Validate(s.C, true); err != nil {
		t.Fatal(err)
	}
}

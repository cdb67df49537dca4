package planner

import (
	"math"
	"slices"
	"testing"

	"laermoe/internal/trace"
)

// TestLayerTrackedMatchesUntracked pins the owner's contract: a tracked
// Layer and an untracked one on identically seeded solvers take the same
// decisions through fresh drift, a few moved tokens, reposts, a Repair
// after a node is masked and a Restore. Every step leaves the same layout
// cells, the same Step{Changed, Moves} and planned loads, and Imbalance
// bits equal to LoadImbalance of the lite routing's device loads under
// the layout in force; only the tracked layer reports incremental solves,
// exactly when its tracker was bound. A bound tracker holds exactly those
// device loads, and its solver's cache describes the layout in force;
// the untracked layer's solver holds them as its scored loads.
func TestLayerTrackedMatchesUntracked(t *testing.T) {
	topo, sT, gen, r0, _ := driftFixture(t, 16, 64, 256)
	sP := NewSolver(topo, sT.C, sT.Params, sT.Opts)
	initial, err := StaticEP(64, 16, sT.C)
	if err != nil {
		t.Fatal(err)
	}
	tracked := NewLayer(sT, initial, true, true, 0.1)
	plain := NewLayer(sP, initial, true, false, 0.1)

	bound := false // the tracked layer's tracker is bound going into a step
	var incremental, changed, keeps int
	replan := func(what string, r *trace.RoutingMatrix) {
		t.Helper()
		a, err := tracked.Replan(r, 1e-6, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := plain.Replan(r, 1e-6, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Changed != b.Changed || a.Moves != b.Moves {
			t.Fatalf("%s: tracked step changed=%v moves=%d, untracked changed=%v moves=%d",
				what, a.Changed, a.Moves, b.Changed, b.Moves)
		}
		if !tracked.Layout().Equal(plain.Layout()) || !slices.Equal(tracked.PlannedLoads(), plain.PlannedLoads()) {
			t.Fatalf("%s: tracked and untracked layers diverge", what)
		}
		ref := LiteTraffic(r, tracked.Layout(), topo).Loads()
		if tr := tracked.tracker; tr.valid {
			checkCache(t, what, sT, nil, tracked.Layout())
			if !slices.Equal(tr.devLoads, ref) {
				t.Fatalf("%s: tracker device loads %v, lite routing's %v", what, tr.devLoads, ref)
			}
		}
		checkCache(t, what, sP, r, plain.Layout())
		want := math.Float64bits(LoadImbalance(ref, topo.NumAvailable()))
		if math.Float64bits(a.Imbalance) != want || math.Float64bits(b.Imbalance) != want {
			t.Fatalf("%s: imbalance tracked %v, untracked %v, want %v (bit-identical)",
				what, a.Imbalance, b.Imbalance, math.Float64frombits(want))
		}
		if a.Incremental != bound || b.Incremental {
			t.Fatalf("%s: incremental tracked=%v untracked=%v with the tracker bound=%v",
				what, a.Incremental, b.Incremental, bound)
		}
		bound = len(tracked.PlannedLoads()) > 0
		if a.Incremental {
			incremental++
		}
		if a.Changed {
			changed++
		} else {
			keeps++
		}
	}
	drift := func() *trace.RoutingMatrix {
		t.Helper()
		if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftMigration, Rate: 0.35}); err != nil {
			t.Fatal(err)
		}
		return gen.Step()[0].Clone()
	}

	replan("first observation", r0)
	r := r0
	for step := 0; step < 8; step++ {
		switch step % 4 {
		case 0:
			r = drift()
		case 1, 3:
			r = moveTokens(r, step == 3)
		}
		replan("drift sequence", r)
	}

	// Masking a node strips replicas: both layers repair identically, and
	// the tracker unbinds until the next solve rebases it.
	snapshot, planned := tracked.Layout().Clone(), slices.Clone(tracked.PlannedLoads())
	if err := topo.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	a, err := tracked.Repair()
	if err != nil {
		t.Fatal(err)
	}
	b, err := plain.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if a != b || !a.Changed() || !tracked.Layout().Equal(plain.Layout()) {
		t.Fatalf("repair: tracked %+v, untracked %+v", a, b)
	}
	bound = false
	replan("after repair", r)
	replan("repost after repair", r)
	replan("drift after repair", drift())

	// Restoring an imported layout unbinds the tracker too; an empty
	// planned vector plans the next solve from scratch loads.
	if err := topo.AddNode(1); err != nil {
		t.Fatal(err)
	}
	tracked.Restore(snapshot.Clone(), planned)
	plain.Restore(snapshot.Clone(), planned)
	bound = false
	replan("after restore", r)
	replan("repost after restore", r)
	tracked.Restore(snapshot.Clone(), nil)
	plain.Restore(snapshot.Clone(), nil)
	bound = false
	replan("restore without planned loads", moveTokens(r, false))
	replan("drift after restore", drift())

	if incremental == 0 || changed == 0 || keeps == 0 {
		t.Fatalf("sequence took %d incremental solves, %d re-layouts and %d keeps; want all three", incremental, changed, keeps)
	}
}

// TestLayerResetAndColdReplan covers the remaining planning actions: a
// cold layer re-solves from scratch on every step (its track flag is
// ignored), a reset layout is never handed back to the solver's free list,
// and a Repair the surviving capacity cannot hold fails.
func TestLayerResetAndColdReplan(t *testing.T) {
	topo, s, gen, r0, _ := driftFixture(t, 16, 64, 256)
	ref := NewSolver(topo, s.C, s.Params, s.Opts)
	initial, err := StaticEP(64, 16, s.C)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewLayer(s, initial, false, true, 0)
	for k := 0; k < 2; k++ {
		r := gen.Step()[0]
		prev := cold.Layout()
		st, err := cold.Replan(r, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Solve(r)
		if err != nil {
			t.Fatal(err)
		}
		ref := LiteTraffic(r, cold.Layout(), topo).Loads()
		if !st.Changed || st.Incremental || !cold.Layout().Equal(want.Layout) ||
			st.Moves != MigrationMoves(prev, cold.Layout()) ||
			math.Float64bits(st.Imbalance) != math.Float64bits(LoadImbalance(ref, topo.NumAvailable())) {
			t.Fatalf("cold step %d: %+v does not match a scratch solve", k, st)
		}
		checkCache(t, "cold step", s, r, cold.Layout())
	}

	// A reset layout stays intact however many solves the free list serves.
	warm := NewLayer(ref, initial, true, true, -1)
	shared := initial.Clone()
	warm.Reset(shared)
	for k := 0; k < 4; k++ {
		r := gen.Step()[0]
		if k%2 == 1 {
			r = r0
		}
		if _, err := warm.Replan(r, 0, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !shared.Equal(initial) || warm.Layout() == shared {
		t.Fatal("a reset layout was recycled or never replaced")
	}
	if _, err := warm.Replan(trace.NewRoutingMatrix(8, 64), 0, 0, nil); err == nil {
		t.Fatal("a routing matrix of the wrong shape was planned")
	}

	for node := 1; node < topo.NumNodes; node++ {
		if err := topo.RemoveNode(node); err != nil {
			t.Fatal(err)
		}
	}
	before := warm.Layout()
	if _, err := warm.Repair(); err == nil {
		t.Fatal("repair onto too few surviving slots succeeded")
	}
	if warm.Layout() != before {
		t.Fatal("a failed repair changed the layout in force")
	}
}

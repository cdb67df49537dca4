package planner

import (
	"math"
	"slices"
	"testing"

	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// driftFixture builds a solved layout plus a generator mid-stream, the
// state a tracker is born into.
func driftFixture(t *testing.T, n, e, tokens int) (*topology.Topology, *Solver, *trace.Generator, *trace.RoutingMatrix, *Solution) {
	t.Helper()
	topo := topology.New(n/4, 4)
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices: n, Experts: e, Layers: 1, TokensPerDevice: tokens, TopK: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(topo, 2*e/n, CostParams{TokenBytes: 8192, ExpertFLOPsPerToken: 352e6, FLOPS: 140e12},
		SolverOptions{Epsilon: 2})
	r0 := gen.Step()[0].Clone()
	sol0, err := s.Solve(r0)
	if err != nil {
		t.Fatal(err)
	}
	return topo, s, gen, r0, sol0
}

// scoredScratch returns a route scratch after a scoring walk of layout
// under r: what a solve that returned layout leaves in its solver's cache.
func scoredScratch(s *Solver, r *trace.RoutingMatrix, layout *Layout) *routeScratch {
	sc := new(routeScratch)
	evalLayoutCost(r, layout, s.Topo, s.Params, sc)
	return sc
}

// checkCache fails unless s's keep-path cache describes layout (keyed on
// it, with the replica lists a fresh build gives) and, for a non-nil r,
// holds the device loads of layout's lite routing under r.
func checkCache(t *testing.T, what string, s *Solver, r *trace.RoutingMatrix, layout *Layout) {
	t.Helper()
	var fresh routeScratch
	fresh.buildReplicas(layout, s.Topo)
	c := &s.warm.route
	if s.warm.built != layout || !slices.Equal(c.repArena, fresh.repArena) ||
		!slices.Equal(c.repOff, fresh.repOff) || !slices.Equal(c.nodeOff, fresh.nodeOff) {
		t.Fatalf("%s: the solver's cache does not describe the layout", what)
	}
	if r == nil {
		return
	}
	if want := LiteTraffic(r, layout, s.Topo).Loads(); !slices.Equal(s.scored(), want) {
		t.Fatalf("%s: scored loads %v, lite routing's %v", what, s.scored(), want)
	}
}

// TestDriftTrackerMatchesFullRecompute drives a tracker, rebased from a
// scored scratch, through a drift sequence and checks, at every step,
// that its incremental state equals the from-scratch recomputation:
// per-expert loads bit for bit, the over-threshold flags against
// SolveWarm's moved[] formula, and the device loads and their imbalance
// against the lite routing's.
func TestDriftTrackerMatchesFullRecompute(t *testing.T) {
	topo, s, gen, r0, sol0 := driftFixture(t, 16, 64, 256)
	base := r0.ExpertLoads()
	thr := 0.1

	sc := scoredScratch(s, r0, sol0.Layout)
	tr := newDriftTracker(topo)
	if err := tr.rebase(r0, base, thr, sc.loads); err != nil {
		t.Fatal(err)
	}

	for step := 0; step < 6; step++ {
		if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftMigration, Rate: 0.3}); err != nil {
			t.Fatal(err)
		}
		r := gen.Step()[0]
		if err := tr.update(r, sc); err != nil {
			t.Fatal(err)
		}

		wantLoads := r.ExpertLoads()
		gotLoads := tr.loads
		for j := range wantLoads {
			if gotLoads[j] != wantLoads[j] {
				t.Fatalf("step %d expert %d: tracked load %v, want %v", step, j, gotLoads[j], wantLoads[j])
			}
		}

		// SolveWarm's moved[] predicate, recomputed densely.
		anyOver := false
		moved := make([]bool, len(base))
		copy(moved, tr.over)
		for j := range base {
			denom := base[j]
			if denom < 1 {
				denom = 1
			}
			want := math.Abs(wantLoads[j]-base[j])/denom > thr
			if moved[j] != want {
				t.Fatalf("step %d expert %d: over-threshold %v, want %v", step, j, moved[j], want)
			}
			anyOver = anyOver || want
		}
		if tr.canKeep() == anyOver {
			t.Fatalf("step %d: canKeep %v with an expert over threshold %v", step, tr.canKeep(), anyOver)
		}

		ref := LiteTraffic(r, sol0.Layout, topo).Loads()
		if !slices.Equal(tr.devLoads, ref) {
			t.Fatalf("step %d: tracked device loads %v, lite routing's %v", step, tr.devLoads, ref)
		}
		if got, want := tr.imbalance(), LoadImbalance(ref, topo.NumAvailable()); got != want {
			t.Fatalf("step %d: tracked imbalance %v, want %v (must be bit-identical)", step, got, want)
		}
	}
}

// TestDriftTrackerUpdateEqualsRebase checks that a tracker that reached a
// state through N incremental updates is indistinguishable from one
// rebased directly onto the final observation's scoring walk.
func TestDriftTrackerUpdateEqualsRebase(t *testing.T) {
	topo, s, gen, r0, sol0 := driftFixture(t, 12, 48, 192)
	base := r0.ExpertLoads()

	sc := scoredScratch(s, r0, sol0.Layout)
	inc := newDriftTracker(topo)
	if err := inc.rebase(r0, base, 0.15, sc.loads); err != nil {
		t.Fatal(err)
	}
	var last *trace.RoutingMatrix
	for step := 0; step < 5; step++ {
		if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftBursty, Rate: 0.25}); err != nil {
			t.Fatal(err)
		}
		last = gen.Step()[0]
		if err := inc.update(last, sc); err != nil {
			t.Fatal(err)
		}
	}

	fresh := newDriftTracker(topo)
	if err := fresh.rebase(last, base, 0.15, scoredScratch(s, last, sol0.Layout).loads); err != nil {
		t.Fatal(err)
	}
	il, fl := inc.loads, fresh.loads
	for j := range fl {
		if il[j] != fl[j] {
			t.Fatalf("expert %d: incremental load %v, rebased %v", j, il[j], fl[j])
		}
	}
	im, fm := make([]bool, len(il)), make([]bool, len(fl))
	copy(im, inc.over)
	copy(fm, fresh.over)
	for j := range fm {
		if im[j] != fm[j] {
			t.Fatalf("expert %d: incremental over %v, rebased %v", j, im[j], fm[j])
		}
	}
	if !slices.Equal(inc.devLoads, fresh.devLoads) || inc.imbalance() != fresh.imbalance() {
		t.Fatalf("device loads: incremental %v, rebased %v", inc.devLoads, fresh.devLoads)
	}
	if inc.canKeep() != fresh.canKeep() {
		t.Fatalf("canKeep: incremental %v, rebased %v", inc.canKeep(), fresh.canKeep())
	}
}

// TestSolveWarmTrackedMatchesUntracked pins the tracked solve at the
// solver level: from one warm start, across a sequence spanning keep and
// replan verdicts, solveWarm carried by a bound tracker returns exactly
// the solution of an untracked SolveWarm — same layout cells, same
// candidate count, same migrations, same cost bits. The keeps (a drifted
// matrix folded back to the baseline's, a few moved tokens, a repost with
// no changed cell) leave their cost unscored until asked; every scored
// solve leaves its scoring walk of the returned layout in the cache.
// TestLayerTrackedMatchesUntracked covers the install-and-rebase
// lifecycle through the owner.
func TestSolveWarmTrackedMatchesUntracked(t *testing.T) {
	topo, s, gen, r0, sol0 := driftFixture(t, 16, 64, 256)
	base, thr := r0.ExpertLoads(), 0.1
	warm := WarmStart{Prev: sol0.Layout, PrevLoads: base, Threshold: thr, MigrationCost: 1e-6}
	checkCache(t, "cold solve", s, r0, sol0.Layout)
	tr := newDriftTracker(topo)
	if err := tr.rebase(r0, base, thr, s.scored()); err != nil {
		t.Fatal(err)
	}

	replans := 0
	r := r0
	for step := 0; step < 12; step++ {
		switch step % 4 {
		case 0:
			if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftMigration, Rate: 0.35}); err != nil {
				t.Fatal(err)
			}
			r = gen.Step()[0]
		case 1:
			r = r0
		case 2:
			r = moveTokens(r0, step%8 == 6)
		}

		// A replan verdict moves the cache onto its winner, which a Layer
		// installs and rebases onto; this test keeps one warm start, so it
		// points the cache back at Prev, whose lists the tracker splits
		// over.
		if s.warm.built != sol0.Layout {
			s.warm.route.buildReplicas(sol0.Layout, topo)
			s.warm.built = sol0.Layout
		}
		a, err := s.solveWarm(r, warm, tr)
		if err != nil {
			t.Fatal(err)
		}
		if a.params == nil {
			checkCache(t, "tracked solve", s, r, a.Layout)
		} else {
			checkCache(t, "tracked keep", s, nil, a.Layout) // scored nothing
		}
		b, err := s.SolveWarm(r, warm)
		if err != nil {
			t.Fatal(err)
		}
		checkCache(t, "untracked solve", s, r, b.Layout)

		// Only the tracker's keep verdict leaves the cost unscored, and
		// every step but a fresh drift sample is within the threshold.
		if unscored := a.params != nil; unscored != tr.canKeep() || unscored != (step%4 != 0) {
			t.Fatalf("step %d: tracked cost unscored=%v with canKeep=%v", step, unscored, tr.canKeep())
		}
		if b.params != nil {
			t.Fatalf("step %d: untracked solve left its cost unscored", step)
		}
		if (a.Layout == sol0.Layout) != (b.Layout == sol0.Layout) || !a.Layout.Equal(b.Layout) {
			t.Fatalf("step %d: tracked and untracked layouts diverge", step)
		}
		if a.Candidates != b.Candidates || a.Migrations != b.Migrations {
			t.Fatalf("step %d: tracked candidates/migrations %d/%d, untracked %d/%d",
				step, a.Candidates, a.Migrations, b.Candidates, b.Migrations)
		}
		if ac, bc := a.Cost(), b.Cost(); math.Float64bits(ac) != math.Float64bits(bc) {
			t.Fatalf("step %d: tracked cost %v, untracked %v (must be bit-identical)", step, ac, bc)
		}
		if a.params != nil || a.Cost() != b.Cost() {
			t.Fatalf("step %d: Cost did not settle on its first call", step)
		}
		if a.Layout != sol0.Layout {
			replans++
		}
	}
	if replans == 0 {
		t.Fatal("no drift sample replanned the layer")
	}
}

// moveTokens returns a copy of r with two tokens moved between its two
// most-loaded experts (from the first to the second, or back when back
// is set): drift far below any replan threshold.
func moveTokens(r *trace.RoutingMatrix, back bool) *trace.RoutingMatrix {
	out := r.Clone()
	loads := out.ExpertLoads()
	hi, next := 0, 1
	if loads[next] > loads[hi] {
		hi, next = next, hi
	}
	for j := 2; j < len(loads); j++ {
		switch {
		case loads[j] > loads[hi]:
			hi, next = j, hi
		case loads[j] > loads[next]:
			next = j
		}
	}
	from, to := hi, next
	if back {
		from, to = next, hi
	}
	for i, moved := 0, 0; i < out.N && moved < 2; i++ {
		if out.R[i][from] > 0 {
			out.R[i][from]--
			out.R[i][to]++
			moved++
		}
	}
	return out
}

package planner

import (
	"math"
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

// TestDriftTrackerMatchesFullRecompute drives a tracker through a drift
// sequence and checks, at every step, that its incremental state equals
// the from-scratch recomputation: per-expert loads bit for bit, the
// over-threshold flags against SolveWarm's moved[] formula, and the
// device-load imbalance against LiteImbalance.
func TestDriftTrackerMatchesFullRecompute(t *testing.T) {
	topo, _, gen, r0, sol0 := driftFixture(t, 16, 64, 256)
	base := r0.ExpertLoads()
	thr := 0.1

	tr := NewDriftTracker(topo)
	if err := tr.Rebase(r0, sol0.Layout, base, thr); err != nil {
		t.Fatal(err)
	}

	for step := 0; step < 6; step++ {
		if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftMigration, Rate: 0.3}); err != nil {
			t.Fatal(err)
		}
		r := gen.Step()[0]
		if err := tr.Update(r); err != nil {
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
		if tr.CanKeep() == anyOver {
			t.Fatalf("step %d: CanKeep %v with an expert over threshold %v", step, tr.CanKeep(), anyOver)
		}

		if got, want := tr.Imbalance(), LiteImbalance(r, sol0.Layout, topo); got != want {
			t.Fatalf("step %d: tracked imbalance %v, want %v (must be bit-identical)", step, got, want)
		}
	}
}

// TestDriftTrackerUpdateEqualsRebase checks that a tracker that reached a
// state through N incremental updates is indistinguishable from one
// rebased directly onto the final observation.
func TestDriftTrackerUpdateEqualsRebase(t *testing.T) {
	topo, _, gen, r0, sol0 := driftFixture(t, 12, 48, 192)
	base := r0.ExpertLoads()

	inc := NewDriftTracker(topo)
	if err := inc.Rebase(r0, sol0.Layout, base, 0.15); err != nil {
		t.Fatal(err)
	}
	var last *trace.RoutingMatrix
	for step := 0; step < 5; step++ {
		if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftBursty, Rate: 0.25}); err != nil {
			t.Fatal(err)
		}
		last = gen.Step()[0]
		if err := inc.Update(last); err != nil {
			t.Fatal(err)
		}
	}

	fresh := NewDriftTracker(topo)
	if err := fresh.Rebase(last, sol0.Layout, base, 0.15); err != nil {
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
	if inc.Imbalance() != fresh.Imbalance() {
		t.Fatalf("imbalance: incremental %v, rebased %v", inc.Imbalance(), fresh.Imbalance())
	}
	if inc.CanKeep() != fresh.CanKeep() {
		t.Fatalf("CanKeep: incremental %v, rebased %v", inc.CanKeep(), fresh.CanKeep())
	}
}

// TestSolveWarmTrackedMatchesUntracked pins the tracked solve at the
// solver level: from one warm start, across a sequence spanning keep and
// replan verdicts, solveWarm carried by a bound tracker returns exactly
// the solution of an untracked SolveWarm — same layout cells, same
// candidate count, same migrations, same cost bits. The keeps (a drifted
// matrix folded back to the baseline's, a few moved tokens, a repost with
// no changed cell) leave their cost unscored until asked.
// TestLayerTrackedMatchesUntracked covers the install-and-rebase
// lifecycle through the owner.
func TestSolveWarmTrackedMatchesUntracked(t *testing.T) {
	topo, s, gen, r0, sol0 := driftFixture(t, 16, 64, 256)
	base, thr := r0.ExpertLoads(), 0.1
	warm := WarmStart{Prev: sol0.Layout, PrevLoads: base, Threshold: thr, MigrationCost: 1e-6}
	tr := NewDriftTracker(topo)
	if err := tr.Rebase(r0, sol0.Layout, base, thr); err != nil {
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

		a, err := s.solveWarm(r, warm, tr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.SolveWarm(r, warm)
		if err != nil {
			t.Fatal(err)
		}

		// Only the tracker's keep verdict leaves the cost unscored, and
		// every step but a fresh drift sample is within the threshold.
		if unscored := a.params != nil; unscored != tr.CanKeep() || unscored != (step%4 != 0) {
			t.Fatalf("step %d: tracked cost unscored=%v with CanKeep=%v", step, unscored, tr.CanKeep())
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

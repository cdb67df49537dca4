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
	if !tr.Synced(sol0.Layout, base, thr) {
		t.Fatal("freshly rebased tracker is not synced with its own warm start")
	}

	for step := 0; step < 6; step++ {
		if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftMigration, Rate: 0.3}); err != nil {
			t.Fatal(err)
		}
		r := gen.Step()[0]
		if _, err := tr.Update(r); err != nil {
			t.Fatal(err)
		}

		wantLoads := r.ExpertLoads()
		gotLoads := tr.Loads()
		for j := range wantLoads {
			if gotLoads[j] != wantLoads[j] {
				t.Fatalf("step %d expert %d: tracked load %v, want %v", step, j, gotLoads[j], wantLoads[j])
			}
		}

		// SolveWarm's moved[] predicate, recomputed densely.
		anyOver := false
		moved := make([]bool, len(base))
		tr.copyOver(moved)
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
		if tr.AnyOver() != anyOver {
			t.Fatalf("step %d: AnyOver %v, want %v", step, tr.AnyOver(), anyOver)
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
		if _, err := inc.Update(last); err != nil {
			t.Fatal(err)
		}
	}

	fresh := NewDriftTracker(topo)
	if err := fresh.Rebase(last, sol0.Layout, base, 0.15); err != nil {
		t.Fatal(err)
	}
	il, fl := inc.Loads(), fresh.Loads()
	for j := range fl {
		if il[j] != fl[j] {
			t.Fatalf("expert %d: incremental load %v, rebased %v", j, il[j], fl[j])
		}
	}
	im, fm := make([]bool, len(il)), make([]bool, len(fl))
	inc.copyOver(im)
	fresh.copyOver(fm)
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

// TestSolveWarmTrackedMatchesUntracked pins the tentpole contract at the
// solver level: across a drift sequence spanning keep and replan
// outcomes, a SolveWarm fed a synchronized tracker returns exactly the
// solution of an untracked SolveWarm on an identically seeded solver —
// same layout cells, same candidate count, same migrations, same cost
// bits. The sequence covers the converged regime: keeps on a matrix a
// few tokens away from the last one (also right after a replan and its
// Rebase), whose cost the tracked solve leaves unscored until asked.
func TestSolveWarmTrackedMatchesUntracked(t *testing.T) {
	topo, sTracked, gen, r0, solT := driftFixture(t, 16, 64, 256)
	sPlain := NewSolver(topo, 2*64/16, CostParams{TokenBytes: 8192, ExpertFLOPsPerToken: 352e6, FLOPS: 140e12},
		SolverOptions{Epsilon: 2})
	solP, err := sPlain.Solve(r0)
	if err != nil {
		t.Fatal(err)
	}
	if !solT.Layout.Equal(solP.Layout) {
		t.Fatal("identically seeded solvers disagree before any warm start")
	}

	prevT, prevP := solT.Layout, solP.Layout
	loadsT := r0.ExpertLoads()
	loadsP := append([]float64(nil), loadsT...)
	thr := 0.1

	tr := NewDriftTracker(topo)
	if err := tr.Rebase(r0, prevT, loadsT, thr); err != nil {
		t.Fatal(err)
	}

	replans, keepsRepost, keepsDrift, keepsAfterReplan := 0, 0, 0, 0
	justReplanned := false
	r := r0
	for step := 0; step < 12; step++ {
		// A fresh post-drift sample exercises the incremental re-score, a
		// few moved tokens the converged keep, and re-submitting the same
		// matrix the keep with no changed cell.
		switch step % 3 {
		case 0:
			if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftMigration, Rate: 0.35}); err != nil {
				t.Fatal(err)
			}
			r = gen.Step()[0]
		case 1:
			r = moveTokens(r, step%2 == 1)
		}

		wsT := WarmStart{Prev: prevT, PrevLoads: loadsT, Threshold: thr, MigrationCost: 1e-6, Tracker: tr}
		if !tr.Synced(prevT, loadsT, thr) {
			t.Fatalf("step %d: tracker lost sync", step)
		}
		cellsBefore := tr.CellsChanged()
		a, err := sTracked.SolveWarm(r, wsT)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sPlain.SolveWarm(r, WarmStart{Prev: prevP, PrevLoads: loadsP, Threshold: thr, MigrationCost: 1e-6})
		if err != nil {
			t.Fatal(err)
		}

		// Only the tracker's keep verdict leaves the cost unscored, and
		// asking for it scores it once.
		if unscored := a.params != nil; unscored != tr.CanKeep() {
			t.Fatalf("step %d: tracked cost unscored=%v with CanKeep=%v", step, unscored, tr.CanKeep())
		}
		if b.params != nil {
			t.Fatalf("step %d: untracked solve left its cost unscored", step)
		}
		if (a.Layout == prevT) != (b.Layout == prevP) {
			t.Fatalf("step %d: tracked kept=%v, untracked kept=%v", step, a.Layout == prevT, b.Layout == prevP)
		}
		if !a.Layout.Equal(b.Layout) {
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

		if a.Layout != prevT {
			replans++
			justReplanned = true
			// Mirror the online planner's lifecycle: install, advance the
			// baseline, rebase the tracker on the new epoch.
			if prevT != solT.Layout {
				sTracked.Recycle(prevT)
			}
			prevT = a.Layout
			loadsT = r.ExpertLoadsInto(loadsT)
			if err := tr.Rebase(r, prevT, loadsT, thr); err != nil {
				t.Fatal(err)
			}
			if prevP != solP.Layout {
				sPlain.Recycle(prevP)
			}
			prevP = b.Layout
			loadsP = r.ExpertLoadsInto(loadsP)
			continue
		}
		if tr.CellsChanged() == cellsBefore {
			keepsRepost++
		} else {
			keepsDrift++
			if justReplanned {
				keepsAfterReplan++
			}
		}
		justReplanned = false
	}
	if replans == 0 || keepsRepost == 0 || keepsDrift == 0 || keepsAfterReplan == 0 {
		t.Fatalf("drift sequence exercised replans=%d keeps on a repost=%d on moved tokens=%d right after a replan=%d; want all four",
			replans, keepsRepost, keepsDrift, keepsAfterReplan)
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

// TestDriftTrackerDesyncIsIgnored checks the safety valve: a tracker
// bound to a different layout, baseline slice or threshold than the warm
// start must not engage, and SolveWarm must fall back to the full path.
func TestDriftTrackerDesyncIsIgnored(t *testing.T) {
	topo, s, gen, r0, sol0 := driftFixture(t, 8, 32, 128)
	base := r0.ExpertLoads()
	tr := NewDriftTracker(topo)
	if err := tr.Rebase(r0, sol0.Layout, base, 0.2); err != nil {
		t.Fatal(err)
	}

	other := append([]float64(nil), base...)
	if tr.Synced(sol0.Layout, other, 0.2) {
		t.Fatal("tracker claims sync with a different baseline slice")
	}
	if tr.Synced(sol0.Layout, base, 0.3) {
		t.Fatal("tracker claims sync with a different threshold")
	}
	if tr.Synced(nil, base, 0.2) {
		t.Fatal("tracker claims sync with a different layout")
	}
	// A nil baseline means SolveWarm re-scores everything; the tracker
	// must never engage for it.
	if err := tr.Rebase(r0, sol0.Layout, nil, 0.2); err != nil {
		t.Fatal(err)
	}
	if tr.Synced(sol0.Layout, nil, 0.2) {
		t.Fatal("tracker claims sync with a nil baseline")
	}

	// A desynchronized tracker passed to SolveWarm is ignored: the result
	// matches an untracked call bit for bit.
	r1 := gen.Step()[0]
	a, err := s.SolveWarm(r1, WarmStart{Prev: sol0.Layout, PrevLoads: other, Threshold: 0.2, Tracker: tr})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.SolveWarm(r1, WarmStart{Prev: sol0.Layout, PrevLoads: other, Threshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Layout.Equal(b.Layout) || a.Cost() != b.Cost() {
		t.Fatal("desynchronized tracker changed the solve result")
	}

	tr.Invalidate()
	if tr.Valid() || tr.Layout() != nil || tr.CanKeep() {
		t.Fatal("invalidated tracker still reports usable state")
	}
}

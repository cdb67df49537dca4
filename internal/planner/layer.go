package planner

import "laermoe/internal/trace"

// Layer is the one owner of a MoE layer's re-layout state: the layout in
// force, the loads it was planned for, the solver that re-plans it (with
// the solver's scratch arena and layout free list) and, for a tracked
// layer, the drift tracker that carries steady-state decisions without
// re-scoring the layer. Each planning action is one method, and only those
// methods change what the tracker describes, so a valid tracker is bound
// to exactly the layout in force and its planned loads by construction,
// and the solver's keep-path cache, which the tracker splits cells over,
// describes that layout: every solve leaves it on the layout it returns,
// which Replan installs.
//
// The solver's topology may change only between calls, and the owner must
// then call Repair (or Reset), which unbinds the tracker: membership and
// degradation move the token splits and the live-device mean behind its
// accumulators. A Layer is not safe for concurrent use.
type Layer struct {
	solver  *Solver
	layout  *Layout
	owned   bool      // layout came from solver and may be recycled
	planned []float64 // loads layout was planned for; empty before the first re-layout
	warm    bool
	thr     float64
	tracker *driftTracker // nil for an untracked layer
}

// Step is what one Replan did to its layer.
type Step struct {
	// Changed reports that a new layout was put in force, and Moves counts
	// the replicas it restores onto devices that did not host them.
	Changed bool
	Moves   int
	// Imbalance is LoadImbalance of the lite routing's device loads under
	// the layout left in force and the routing the step planned against.
	Imbalance float64
	// Incremental reports that a bound drift tracker carried the solve
	// instead of a full re-scan of the layer.
	Incremental bool
}

// NewLayer puts initial in force for a layer planned by solver. A warm
// layer re-solves incrementally from the layout in force (SolveWarm with
// the given raw threshold), a cold one from scratch (Solve). track gives a
// warm layer a drift tracker; decisions are identical either way. The
// layer takes solver over: nothing else may solve with it, since the
// tracker and the step report read what its last solve scored. initial
// is never recycled into the solver's free list, so it may be shared.
func NewLayer(solver *Solver, initial *Layout, warm, track bool, threshold float64) *Layer {
	l := &Layer{solver: solver, layout: initial, warm: warm, thr: threshold}
	if warm && track {
		l.tracker = newDriftTracker(solver.Topo)
	}
	return l
}

// Layout returns the layout in force: read-only, and recycled by a later
// planning action, so do not keep it past the next one.
func (l *Layer) Layout() *Layout { return l.layout }

// PlannedLoads returns the per-expert loads the layout in force was
// planned for (empty before the first re-layout). Read-only.
func (l *Layer) PlannedLoads() []float64 { return l.planned }

// Replan re-decides the layer's layout against routing r. migrationCost is
// the per-replica charge the keep-versus-migrate score weighs and
// forecastErr the confidence discount of a forecast r (WarmStart's
// MigrationCost and ForecastError). A re-layout is planned for plannedFor,
// or for r's own expert loads when plannedFor is nil; a keep leaves the
// planned loads where they were, so slow drift accumulates against them
// instead of ratcheting the baseline forward and never firing.
func (l *Layer) Replan(r *trace.RoutingMatrix, migrationCost, forecastErr float64, plannedFor []float64) (Step, error) {
	prev := l.layout
	var tr *driftTracker
	if l.tracker != nil && l.tracker.valid {
		tr = l.tracker
	}
	var sol *Solution
	var err error
	if l.warm {
		sol, err = l.solver.solveWarm(r, WarmStart{
			Prev:          prev,
			PrevLoads:     l.planned,
			Threshold:     l.thr,
			MigrationCost: migrationCost,
			ForecastError: forecastErr,
		}, tr)
	} else {
		sol, err = l.solver.Solve(r)
	}
	if err != nil {
		return Step{}, err
	}
	st := Step{Moves: MigrationMoves(prev, sol.Layout), Incremental: tr != nil}
	if sol.Layout != prev {
		st.Changed = true
		l.install(sol.Layout, true)
		if plannedFor == nil {
			l.planned = r.ExpertLoadsInto(l.planned)
		} else {
			l.planned = append(l.planned[:0], plannedFor...)
		}
	}
	// An unbound tracker means the solve was untracked, so it scored the
	// layout in force under r: re-anchor the tracker on that scoring walk.
	// Without planned loads there is no baseline.
	if l.tracker != nil && !l.tracker.valid && len(l.planned) > 0 {
		if err := l.tracker.rebase(r, l.planned, l.thr, l.solver.scored()); err != nil {
			return Step{}, err
		}
	}
	if l.tracker != nil && l.tracker.valid {
		// A tracked keep scores nothing; the tracker holds the lite
		// routing's device loads for exactly (r, layout in force).
		st.Imbalance = l.tracker.imbalance()
	} else {
		// Every untracked solve scored the layout it returned under r.
		st.Imbalance = LoadImbalance(l.solver.scored(), l.solver.Topo.NumAvailable())
	}
	return st, nil
}

// Repair re-lays out the layer after its solver's topology changed
// (Solver.Repair, balanced for the planned loads, or uniform loads before
// the first re-layout) and unbinds the tracker. A layout that lost no
// replica stays in force and the stats are zero.
func (l *Layer) Repair() (RepairStats, error) {
	if l.tracker != nil {
		l.tracker.invalidate()
	}
	next, st, err := l.solver.Repair(l.layout, l.planned)
	if err != nil {
		return st, err
	}
	if next != l.layout {
		l.install(next, true)
	}
	return st, nil
}

// Reset puts layout in force without ever recycling it (the static
// checkpoint restore shares one layout across layers) and keeps the
// planned loads.
func (l *Layer) Reset(layout *Layout) { l.install(layout, false) }

// Restore puts an imported layout and the loads it was planned for in
// force. The caller validates them: layout must match the solver's shape
// and planned must hold 0 or E loads. The layer takes ownership of layout.
func (l *Layer) Restore(layout *Layout, planned []float64) {
	l.install(layout, true)
	l.planned = append(l.planned[:0], planned...)
}

// install swaps next into force, unbinding the tracker and handing the
// dropped layout back to the solver's free list when the solver built it:
// the recycling keeps steady-state solves allocation-free.
func (l *Layer) install(next *Layout, owned bool) {
	if l.tracker != nil {
		l.tracker.invalidate()
	}
	if l.owned && l.layout != next {
		l.solver.Recycle(l.layout)
	}
	l.layout, l.owned = next, owned
}

package planner

import (
	"fmt"
	"math"
	"slices"

	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// driftTracker maintains, incrementally, everything the warm solver's
// keep-versus-replan gate needs about one layer: the last observed routing
// matrix, the per-expert load totals, which experts have drifted past the
// replan threshold relative to the loads the current layout was planned
// for, and the per-device received loads of the lite routing under that
// layout. Each observation is folded in by diffing against the previous
// one — O(N·E) comparisons but O(changed cells) arithmetic — so at steady
// state (loads mostly stationary, the regime the paper and *Prediction Is
// All MoE Needs* document) the epoch decision runs without re-scoring the
// layer: when no expert is over threshold, the full SolveWarm is
// guaranteed to return "keep", so SolveWarm returns that verdict without
// scoring its cost (Solution.Cost scores it on demand) and the tracker
// reports the layer's imbalance directly.
//
// The tracker walks no Alg. 3 routing of its own. rebase copies the
// device loads the solve's scoring walk left (Solver.scored), and update
// splits changed cells over the solver's cached replica lists, which
// describe the bound layout: every scored solve leaves the cache on the
// layout it returned, Layer installs that layout, and a tracked keep
// changes neither.
//
// Exactness contract (what makes the incremental path byte-identical to
// the full re-score):
//
//   - the over-threshold predicate is SolveWarm's own (drifted: |load−base|
//     / max(base,1) > threshold, after the same normalizeWarmThreshold);
//   - per-expert loads are integer-valued float64 sums, and folding exact
//     integer deltas into them is exact, so they equal ExpertLoadsInto
//     bit for bit;
//   - per-device received loads are maintained by replaying, per changed
//     cell, the exact token split forEachAssignment performs (same
//     intra-node/global segment choice, same remainder rotation), so they
//     equal the integer loads a scoring walk of the current observation
//     would accumulate, and imbalance divides them exactly as it would.
//
// A tracker is bound to one (layout, planned loads, threshold) epoch by
// rebase and must be invalidated whenever the layout, the planned loads or
// the topology change. Layer owns a layer's tracker and is the one place
// that rebases and invalidates it, so the tracked solve never checks the
// binding. It is not safe for concurrent use.
type driftTracker struct {
	topo *topology.Topology
	e, n int

	prev     *trace.RoutingMatrix // retained copy of the last observed matrix
	loads    []float64            // per-expert totals of prev (integer-valued)
	base     []float64            // planned loads the threshold measures against
	over     []bool               // per-expert over-threshold flags
	overIdx  []int                // scratch: experts touched by the last update
	touch    []int32              // scratch: 1+position in overIdx during an update
	devLoads []int                // per-device received loads under the bound layout
	thr      float64

	valid bool
}

// newDriftTracker builds a tracker for the given cluster. It starts
// invalid; rebase binds it to a layout.
func newDriftTracker(topo *topology.Topology) *driftTracker {
	return &driftTracker{topo: topo}
}

// normalizeWarmThreshold is SolveWarm's threshold defaulting: 0 selects
// DefaultWarmThreshold, negative means "any change at all".
func normalizeWarmThreshold(thr float64) float64 {
	if thr == 0 {
		return DefaultWarmThreshold
	}
	if thr < 0 {
		return 0
	}
	return thr
}

// drifted is the warm start's re-placement predicate, shared by SolveWarm
// and the tracker: an expert whose load moved from the base it was
// planned for by more than thr (normalized), relative to max(base, 1).
func drifted(load, base, thr float64) bool {
	denom := base
	if denom < 1 {
		denom = 1
	}
	return math.Abs(load-base)/denom > thr
}

// invalidate unbinds the tracker; the next decision must take the full
// path and rebase.
func (t *driftTracker) invalidate() { t.valid = false }

// rebase binds the tracker to the layout now in force: r is the
// observation that layout was installed against, base the per-expert
// loads it was planned for (SolveWarm's PrevLoads, copied), threshold the
// raw WarmStart.Threshold, and devLoads the per-device received loads of
// r's lite routing under the layout, which the solve's scoring walk left
// (Solver.scored). Everything else is recomputed from r — rebase runs
// right after a full solve, whose cost it amortizes.
func (t *driftTracker) rebase(r *trace.RoutingMatrix, base []float64, threshold float64, devLoads []int) error {
	if len(base) != r.E {
		return fmt.Errorf("planner: drift tracker has %d base loads for %d experts", len(base), r.E)
	}
	t.e, t.n = r.E, r.N
	t.thr = normalizeWarmThreshold(threshold)

	if t.prev == nil || t.prev.N != r.N || t.prev.E != r.E {
		t.prev = trace.NewRoutingMatrix(r.N, r.E)
	}
	for i := 0; i < r.N; i++ {
		copy(t.prev.R[i], r.R[i])
	}
	if cap(t.loads) < t.e {
		t.loads = make([]float64, t.e)
		t.base = make([]float64, t.e)
		t.over = make([]bool, t.e)
		t.touch = make([]int32, t.e)
		t.overIdx = make([]int, 0, t.e)
	}
	t.loads = t.prev.ExpertLoadsInto(t.loads[:0])
	t.base = t.base[:t.e]
	t.over = t.over[:t.e]
	t.touch = t.touch[:t.e]
	copy(t.base, base)
	for j := 0; j < t.e; j++ {
		t.over[j] = drifted(t.loads[j], t.base[j], t.thr)
		t.touch[j] = 0
	}
	t.devLoads = append(t.devLoads[:0], devLoads...)

	t.valid = true
	return nil
}

// update folds one observation in: it diffs r against the retained
// previous matrix, replays each changed cell's token split over sc (the
// replica lists of the bound layout) into the per-device loads, adjusts
// the per-expert totals and re-evaluates the threshold flags of the
// touched experts. The tracker must be valid and r must match its shape.
func (t *driftTracker) update(r *trace.RoutingMatrix, sc *routeScratch) error {
	if !t.valid {
		return fmt.Errorf("planner: drift tracker update before rebase")
	}
	if r.N != t.n || r.E != t.e {
		return fmt.Errorf("planner: drift tracker update %dx%d, tracking %dx%d", r.N, r.E, t.n, t.e)
	}
	t.overIdx = t.overIdx[:0]
	for i := 0; i < t.n; i++ {
		prow, nrow := t.prev.R[i], r.R[i]
		for j, nv := range nrow {
			pv := prow[j]
			if nv == pv {
				continue
			}
			t.splitCell(sc, i, j, pv, -1)
			t.splitCell(sc, i, j, nv, +1)
			t.loads[j] += float64(nv - pv)
			prow[j] = nv
			if t.touch[j] == 0 {
				t.overIdx = append(t.overIdx, j)
				t.touch[j] = 1
			}
		}
	}
	for _, j := range t.overIdx {
		t.touch[j] = 0
		t.over[j] = drifted(t.loads[j], t.base[j], t.thr)
	}
	return nil
}

// splitCell replays forEachAssignment's token split of one (rank, expert,
// tokens) cell over sc into the per-device accumulators with the given
// sign: the same intra-node-else-global segment choice and the same
// (idx+rank+expert) mod n remainder rotation, so adding a cell and later
// subtracting it cancels exactly.
func (t *driftTracker) splitCell(sc *routeScratch, rank, j, tokens, sign int) {
	if tokens == 0 {
		return
	}
	nn := t.topo.NumNodes
	base := j * (nn + 1)
	node := t.topo.Node(rank)
	lo, hi := sc.nodeOff[base+node], sc.nodeOff[base+node+1]
	if lo >= hi {
		lo, hi = sc.repOff[j], sc.repOff[j+1]
	}
	if hi-lo == 1 {
		t.devLoads[sc.repArena[lo]] += sign * tokens
		return
	}
	targets := sc.repArena[lo:hi]
	n := len(targets)
	bs, rem := tokens/n, tokens%n
	for idx, dev := range targets {
		tt := bs
		if (idx+rank+j)%n < rem {
			tt++
		}
		t.devLoads[dev] += sign * tt
	}
}

// canKeep reports that the full warm solve is guaranteed to keep the
// bound layout for the current observation: the tracker is valid and no
// expert drifted past the threshold (SolveWarm's anyMoved is false).
func (t *driftTracker) canKeep() bool {
	return t.valid && !slices.Contains(t.over, true)
}

// imbalance returns LoadImbalance of the tracked device loads: the same
// integers a scoring walk of the current observation under the bound
// layout accumulates, so a bit-identical result.
func (t *driftTracker) imbalance() float64 {
	return LoadImbalance(t.devLoads, t.topo.NumAvailable())
}

package planner

import (
	"fmt"
	"math"
	"slices"

	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// DriftTracker maintains, incrementally, everything the warm solver's
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
// reports the exact LiteImbalance directly.
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
//     intra-node/global segment choice, same remainder rotation), so
//     Imbalance reproduces LiteImbalance's integer accumulators and its
//     float division exactly.
//
// A tracker is bound to one (layout, planned loads, threshold) epoch by
// Rebase and must be Invalidated whenever the layout, the planned loads or
// the topology change. Layer owns a layer's tracker and is the one place
// that rebases and invalidates it, so the tracked solve never checks the
// binding. It is not safe for concurrent use.
type DriftTracker struct {
	topo *topology.Topology
	e, n int

	prev     *trace.RoutingMatrix // retained copy of the last observed matrix
	loads    []float64            // per-expert totals of prev (integer-valued)
	base     []float64            // planned loads the threshold measures against
	over     []bool               // per-expert over-threshold flags
	overIdx  []int                // scratch: experts touched by the last Update
	touch    []int32              // scratch: 1+position in overIdx during an Update
	devLoads []int                // per-device received loads under the bound layout
	sc       routeScratch         // replica lists of the bound layout
	thr      float64

	valid bool
}

// NewDriftTracker builds a tracker for the given cluster. It starts
// invalid; Rebase binds it to a layout.
func NewDriftTracker(topo *topology.Topology) *DriftTracker {
	return &DriftTracker{topo: topo}
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

// Invalidate unbinds the tracker; the next decision must take the full
// path and Rebase.
func (t *DriftTracker) Invalidate() { t.valid = false }

// Rebase binds the tracker: layout is the layout now in force, base the
// per-expert loads it was planned for (SolveWarm's PrevLoads, copied),
// threshold the raw WarmStart.Threshold, and r the observation the layout
// was installed against. Everything is recomputed from scratch — Rebase
// runs right after a full solve, whose cost it amortizes.
func (t *DriftTracker) Rebase(r *trace.RoutingMatrix, layout *Layout, base []float64, threshold float64) error {
	if layout == nil {
		return fmt.Errorf("planner: drift tracker rebased onto nil layout")
	}
	if r.E != layout.E || r.N != layout.N {
		return fmt.Errorf("planner: drift tracker routing %dx%d does not match layout %dx%d", r.N, r.E, layout.N, layout.E)
	}
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

	t.sc.buildReplicas(layout, t.topo)
	if cap(t.devLoads) < t.n {
		t.devLoads = make([]int, t.n)
	}
	t.devLoads = t.devLoads[:t.n]
	for d := range t.devLoads {
		t.devLoads[d] = 0
	}
	forEachAssignment(t.prev, layout, t.topo, &t.sc, func(_, _, dst, tokens int, _ bool) {
		t.devLoads[dst] += tokens
	})

	t.valid = true
	return nil
}

// Update folds one observation in: it diffs r against the retained
// previous matrix, replays each changed cell's token split into the
// per-device loads, adjusts the per-expert totals and re-evaluates the
// threshold flags of the touched experts. The tracker must be valid and r
// must match its shape.
func (t *DriftTracker) Update(r *trace.RoutingMatrix) error {
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
			t.splitCell(i, j, pv, -1)
			t.splitCell(i, j, nv, +1)
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
// tokens) cell into the per-device accumulators with the given sign: the
// same intra-node-else-global segment choice and the same
// (idx+rank+expert) mod n remainder rotation, so adding a cell and later
// subtracting it cancels exactly.
func (t *DriftTracker) splitCell(rank, j, tokens, sign int) {
	if tokens == 0 {
		return
	}
	nn := t.topo.NumNodes
	base := j * (nn + 1)
	node := t.topo.Node(rank)
	lo, hi := t.sc.nodeOff[base+node], t.sc.nodeOff[base+node+1]
	if lo >= hi {
		lo, hi = t.sc.repOff[j], t.sc.repOff[j+1]
	}
	if hi-lo == 1 {
		t.devLoads[t.sc.repArena[lo]] += sign * tokens
		return
	}
	targets := t.sc.repArena[lo:hi]
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

// CanKeep reports that the full warm solve is guaranteed to keep the
// bound layout for the current observation: the tracker is valid and no
// expert drifted past the threshold (SolveWarm's anyMoved is false).
func (t *DriftTracker) CanKeep() bool {
	return t.valid && !slices.Contains(t.over, true)
}

// Imbalance returns LiteImbalance(r, layout, topo) for the tracked state,
// from the incrementally maintained integer device loads: the same loads
// through the same LoadImbalance, so a bit-identical result.
func (t *DriftTracker) Imbalance() float64 {
	return LoadImbalance(t.devLoads, t.topo.NumAvailable())
}

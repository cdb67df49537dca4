// Package exact provides a reference solver for the paper's joint
// layout/routing optimization (Sec. 3.2, Eq. 2-4) on tiny instances. The
// paper notes the problem is a nonlinear integer program that generic
// solvers (SCIP) only handle at small scale; this package plays that role
// for tests: it enumerates every feasible expert layout, refines the token
// routing with a local search, and returns the best strategy found, so the
// greedy planner's solution quality can be checked against it.
package exact

import (
	"fmt"

	"laermoe/internal/planner"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// MaxLayouts bounds the enumeration; Search fails rather than running
// unboundedly on instances that are too large.
const MaxLayouts = 2_000_000

// Result is the best strategy Search found.
type Result struct {
	Layout *planner.Layout
	// Dispatch is the layout's lite routing refined by RebalanceDispatch,
	// and Cost its Eq. 2 cost.
	Dispatch *planner.Dispatch
	Cost     float64
	// Candidates is the number of feasible layouts scored.
	Candidates int
}

// Search enumerates all layouts in which every device hosts exactly c
// experts (without per-device duplicates) and every expert has at least
// one replica, scores each with lite routing refined by RebalanceDispatch,
// and returns the cheapest. Only suitable for small N and E.
func Search(r *trace.RoutingMatrix, topo *topology.Topology, c int, params planner.CostParams) (*Result, error) {
	n := topo.N()
	if r.N != n {
		return nil, fmt.Errorf("exact: routing matrix for %d devices, topology has %d", r.N, n)
	}
	subsets := combinations(r.E, c)
	total := 1.0
	for i := 0; i < n; i++ {
		total *= float64(len(subsets))
		if total > MaxLayouts {
			return nil, fmt.Errorf("exact: %d devices x %d subsets exceeds enumeration budget", n, len(subsets))
		}
	}

	best := &Result{Cost: -1}
	choice := make([]int, n)
	var recurse func(dev int)
	recurse = func(dev int) {
		if dev == n {
			layout := planner.NewLayout(r.E, n)
			covered := make([]bool, r.E)
			for d, si := range choice {
				for _, j := range subsets[si] {
					layout.A[j][d] = 1
					covered[j] = true
				}
			}
			for _, ok := range covered {
				if !ok {
					return
				}
			}
			d := planner.LiteRouting(r, layout, topo)
			d = RebalanceDispatch(d, layout, topo, params, 64)
			cost := planner.TimeCost(d, topo, params)
			best.Candidates++
			if best.Cost < 0 || cost < best.Cost {
				best.Layout, best.Dispatch, best.Cost = layout, d, cost
			}
			return
		}
		for si := range subsets {
			choice[dev] = si
			recurse(dev + 1)
		}
	}
	recurse(0)
	if best.Cost < 0 {
		return nil, fmt.Errorf("exact: no feasible layout covers all experts")
	}
	return best, nil
}

// RebalanceDispatch locally improves a dispatch under a fixed layout:
// while the Eq. 2 cost decreases, it moves half of some assignment from
// the most-loaded device to another replica of the same expert. The
// result remains a valid dispatch (conservation holds by construction);
// it is d itself when no move lowers the cost.
func RebalanceDispatch(d *planner.Dispatch, l *planner.Layout, topo *topology.Topology, params planner.CostParams, maxIters int) *planner.Dispatch {
	cur := d
	curCost := planner.TimeCost(cur, topo, params)
	for iter := 0; iter < maxIters; iter++ {
		loads := cur.Loads()
		worst := 0
		for dev, v := range loads {
			if v > loads[worst] {
				worst = dev
			}
		}
		bestCost := curCost
		bestIdx, bestDst, bestMove := -1, -1, 0
		for idx, a := range cur.Assignments {
			if a.Dst != worst || a.Tokens < 2 {
				continue
			}
			move := a.Tokens / 2
			for dst := 0; dst < cur.N; dst++ {
				if dst == a.Dst || l.A[a.Expert][dst] == 0 {
					continue
				}
				trial := applyMove(cur, idx, dst, move)
				cost := planner.TimeCost(trial, topo, params)
				if cost < bestCost {
					bestCost, bestIdx, bestDst, bestMove = cost, idx, dst, move
				}
			}
		}
		if bestIdx < 0 {
			break
		}
		cur = applyMove(cur, bestIdx, bestDst, bestMove)
		curCost = bestCost
	}
	return cur
}

// applyMove returns a copy of d with `move` tokens of assignment idx
// redirected to dst.
func applyMove(d *planner.Dispatch, idx, dst, move int) *planner.Dispatch {
	out := make([]planner.Assignment, 0, len(d.Assignments)+1)
	for i, a := range d.Assignments {
		if i == idx {
			a.Tokens -= move
		}
		if a.Tokens > 0 {
			out = append(out, a)
		}
	}
	src := d.Assignments[idx]
	out = append(out, planner.Assignment{
		Src: src.Src, Expert: src.Expert, Dst: dst, Tokens: move,
	})
	return planner.NewDispatch(d.N, d.E, out)
}

// combinations enumerates all c-element subsets of {0..e-1}.
func combinations(e, c int) [][]int {
	var out [][]int
	subset := make([]int, 0, c)
	var recurse func(start int)
	recurse = func(start int) {
		if len(subset) == c {
			out = append(out, append([]int(nil), subset...))
			return
		}
		for v := start; v < e; v++ {
			subset = append(subset, v)
			recurse(v + 1)
			subset = subset[:len(subset)-1]
		}
	}
	recurse(0)
	return out
}

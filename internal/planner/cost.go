package planner

import (
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// CostParams parameterizes the Eq. 2 cost model.
type CostParams struct {
	// TokenBytes is V_comm: bytes moved per token assignment per hop.
	TokenBytes float64
	// ExpertFLOPsPerToken is V_comp: forward FLOPs of one assignment.
	ExpertFLOPsPerToken float64
	// FLOPS is B_comp: effective per-device compute throughput.
	FLOPS float64
	// Ckpt is F_ckpt: whether expert activation checkpointing adds a
	// third forward pass to the backward.
	Ckpt bool
}

// CommCost returns T_comm: the point-to-point All-to-All costs summed over
// all pairs (Eq. 2) with the multiplier 4 for the dispatch and combine of
// both forward and backward passes — normalized by the device count.
//
// The normalization is a deliberate deviation from the paper's literal
// formula: the per-pair transfers execute in parallel across devices, so
// the raw sum grows linearly with N and, at cluster scale, swamps the
// max-based T_comp term, driving the tuner toward all-intra-node layouts
// regardless of compute balance. Dividing by N makes T_comm the average
// per-device serialized cost, preserving the topology-awareness the term
// exists for at every scale.
func CommCost(d *Dispatch, topo *topology.Topology, p CostParams) float64 {
	if d.Traffic() {
		// Summed per pair instead of per assignment, the bits would differ
		// from the solver's streamed cost.
		panic("planner: CommCost needs an assignment-form dispatch")
	}
	t := 0.0
	for _, a := range d.Assignments {
		if a.Src == a.Dst {
			continue
		}
		t += float64(a.Tokens) * p.TokenBytes / topo.Bandwidth(a.Src, a.Dst)
	}
	return 4 * t / float64(d.N)
}

// CompCost returns T_comp (Eq. 2): (3 + F_ckpt) times the forward compute
// time of the most loaded device.
func CompCost(d *Dispatch, topo *topology.Topology, p CostParams) float64 {
	worst := 0.0
	for dev, l := range d.Loads() {
		t := float64(l) * p.ExpertFLOPsPerToken / p.FLOPS * topo.ComputeFactor(dev)
		if t > worst {
			worst = t
		}
	}
	factor := 3.0
	if p.Ckpt {
		factor = 4.0
	}
	return factor * worst
}

// TimeCost returns T = T_comm + T_comp, the objective minimized by the
// expert layout tuner.
func TimeCost(d *Dispatch, topo *topology.Topology, p CostParams) float64 {
	return CommCost(d, topo, p) + CompCost(d, topo, p)
}

// evalLayoutCost returns TimeCost(LiteRouting(r, l, topo), topo, p)
// without materializing the Dispatch: the lite-routing assignments stream
// straight through the Eq. 2 accumulators (comm time per assignment,
// received load per device). Assignments arrive in the same order
// LiteRouting appends them, so the floating-point sum — and therefore the
// solver's candidate ranking — is bit-identical to the materialized path.
func evalLayoutCost(r *trace.RoutingMatrix, l *Layout, topo *topology.Topology, p CostParams, sc *routeScratch) float64 {
	sc.buildReplicas(l, topo)
	return evalBuiltLayoutCost(r, l, topo, p, sc)
}

// evalBuiltLayoutCost is evalLayoutCost over a scratch already prepared
// with buildReplicas for l — the warm solver uses it to amortize the
// replica-list build of a layout it re-scores across epochs. The walk's
// per-device received loads stay in sc.loads.
func evalBuiltLayoutCost(r *trace.RoutingMatrix, l *Layout, topo *topology.Topology, p CostParams, sc *routeScratch) float64 {
	if cap(sc.loads) < l.N {
		sc.loads = make([]int, l.N)
	}
	sc.loads = sc.loads[:l.N]
	loads := sc.loads
	clear(loads)
	commT := 0.0
	hetero := topo.HasLinkClasses()
	forEachAssignment(r, l, topo, sc, func(src, expert, dst, tokens int, sameNode bool) {
		loads[dst] += tokens
		if src != dst {
			// The node relation arrives with the assignment, but the
			// arithmetic stays term-for-term identical to dividing by
			// topo.Bandwidth(src, dst). Heterogeneous link classes fall
			// back to the full lookup, which applies the same per-pair
			// scaling CommCost sees.
			var bw float64
			if hetero {
				bw = topo.Bandwidth(src, dst)
			} else if sameNode {
				bw = topo.IntraBW
			} else {
				bw = topo.InterBW
			}
			commT += float64(tokens) * p.TokenBytes / bw
		}
	})
	comm := 4 * commT / float64(l.N)

	worst := 0.0
	for dev, ld := range loads {
		t := float64(ld) * p.ExpertFLOPsPerToken / p.FLOPS * topo.ComputeFactor(dev)
		if t > worst {
			worst = t
		}
	}
	factor := 3.0
	if p.Ckpt {
		factor = 4.0
	}
	return comm + factor*worst
}

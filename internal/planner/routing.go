package planner

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// Assignment is one entry of the token routing strategy S (Table 1):
// Tokens token-to-expert assignments originating on device Src, destined
// for expert Expert, computed on device Dst.
type Assignment struct {
	Src    int
	Expert int
	Dst    int
	Tokens int
}

// Dispatch is one layer's token routing strategy S[i][j][k]. Every
// dispatch carries, from construction, the tokens each device receives
// (Loads): the routers tally them during their walk, and NewDispatch
// tallies hand-built assignments; a Dispatch literal has no loads, and
// the executor rejects it. It comes in one of two forms.
//
// The assignment form lists the single assignments (Assignments).
// LiteRouting, LeastLoadedRouting, EPRouting, NaiveReplicaRouting and
// NewDispatch build it, for the consumers that read one (src, expert,
// dst) block at a time: Validate, CommCost, the inference latency meter,
// Table 3's timing, the exact oracle and the baselines that place tokens
// by hand (static EP, FasterMoE, SmartMoE).
//
// The traffic form (LiteTraffic) keeps only the loads and the
// per-(src, dst) token counts; it has no Assignments, and Validate and
// CommCost reject it. Consumers that read only traffic route with it:
// the training iteration path, the classic LAER scheduler, FlexMoE and
// PlanLayout.
//
// PairTokens returns the per-(src, dst) counts in either form, which is
// all the executor prices a layer's All-to-All by. Only the traffic walk
// stores them: an N x N slab per layer is 64 MiB at N=4096, too much to
// add to every assignment-form dispatch, so PairTokens sums those into a
// caller's buffer.
//
// A dispatch owns its memory and is read-only once built: callers must
// not modify its Assignments, Loads or traffic-form pair counts. No
// router hands out a buffer it reuses later, so a caller may hold any
// number of dispatches at once, such as one per layer until the
// iteration executes.
type Dispatch struct {
	N, E        int
	Assignments []Assignment

	// loads holds the per-device received token counts.
	loads []int
	// pairs holds the traffic form's token counts, row-major by source:
	// pairs[src*N+dst] tokens move from src to dst. nil in the assignment
	// form.
	pairs []int32
}

// NewDispatch returns the assignment-form dispatch of hand-built
// assignments over n devices and e experts, with its loads tallied. The
// dispatch takes ownership of the slice.
func NewDispatch(n, e int, assignments []Assignment) *Dispatch {
	loads := make([]int, n)
	for _, a := range assignments {
		loads[a.Dst] += a.Tokens
	}
	return &Dispatch{N: n, E: e, Assignments: assignments, loads: loads}
}

// Traffic reports whether d is in the traffic form: pair counts and
// received loads, no Assignments.
func (d *Dispatch) Traffic() bool { return d.pairs != nil }

// Loads returns, per device, the tokens it computes (Σ_{k,j} S[k][j][i],
// the per-device expert workload). The slice is the dispatch's own: read
// it, do not modify it.
func (d *Dispatch) Loads() []int { return d.loads }

// PairTokens returns the per-(src, dst) token counts, row-major by
// source: [src*N+dst] tokens move from src to dst, local ones included.
// The traffic form returns its own counts, read-only, and leaves buf
// alone. The assignment form sums its assignments into buf, reallocating
// it when its capacity is below N*N, and returns it. Either way the
// counts are exact: it panics, as LiteTraffic does, when a device
// receives more tokens than an int32 holds.
func (d *Dispatch) PairTokens(buf []int32) []int32 {
	if d.pairs != nil {
		return d.pairs
	}
	checkPairRange(d.loads)
	n := d.N
	if cap(buf) < n*n {
		buf = make([]int32, n*n)
	}
	buf = buf[:n*n]
	clear(buf)
	for _, a := range d.Assignments {
		buf[a.Src*n+a.Dst] += int32(a.Tokens)
	}
	return buf
}

// checkPairRange panics when a device receives more tokens than an int32
// pair count holds. A pair's count never exceeds its destination's load,
// so in-range loads mean no count wraps.
func checkPairRange(loads []int) {
	for dst, v := range loads {
		if v > math.MaxInt32 {
			panic(fmt.Sprintf("planner: device %d receives %d tokens, past int32 pair counts", dst, v))
		}
	}
}

// CrossNodeTokens returns the number of tokens that cross a node
// boundary, the quantity lite routing minimizes.
func (d *Dispatch) CrossNodeTokens(topo *topology.Topology) int {
	n := 0
	for i, c := range d.PairTokens(nil) {
		if !topo.SameNode(i/d.N, i%d.N) {
			n += int(c)
		}
	}
	return n
}

// Validate checks conservation against the routing matrix: for every
// (device, expert), dispatched tokens must equal R[i][j], and every
// destination must host a replica of the expert. A traffic-form dispatch
// has no per-expert blocks to check and is rejected.
func (d *Dispatch) Validate(r *trace.RoutingMatrix, l *Layout) error {
	if d.Traffic() {
		return fmt.Errorf("planner: a traffic-form dispatch has no assignments to validate")
	}
	sent := make(map[[2]int]int)
	for _, a := range d.Assignments {
		if a.Tokens < 0 {
			return fmt.Errorf("planner: negative assignment %+v", a)
		}
		if l.A[a.Expert][a.Dst] == 0 {
			return fmt.Errorf("planner: assignment %+v targets device without replica", a)
		}
		sent[[2]int{a.Src, a.Expert}] += a.Tokens
	}
	for i := 0; i < r.N; i++ {
		for j := 0; j < r.E; j++ {
			if got := sent[[2]int{i, j}]; got != r.R[i][j] {
				return fmt.Errorf("planner: device %d expert %d dispatches %d tokens, want %d", i, j, got, r.R[i][j])
			}
		}
	}
	return nil
}

// routeScratch holds the working set of the lite router: the replica
// device lists (an arena plus per-expert offsets) and, because devices are
// numbered node-major, the per-(expert, node) boundaries within each
// expert's list — so a rank's intra-node targets are a precomputed
// subrange instead of a scan. The routers recycle instances through
// routePool and each Solver scores on its own, so that steady-state
// routing and layout evaluation allocate nothing.
type routeScratch struct {
	repArena []int
	repOff   []int // len E+1; replicas of expert j are repArena[repOff[j]:repOff[j+1]]
	nodeOff  []int // len E*(nn+1); expert j's node-k replicas are repArena[nodeOff[j*(nn+1)+k]:nodeOff[j*(nn+1)+k+1]]
	loads    []int // per-device received loads of the last scoring walk (evalBuiltLayoutCost)
}

var routePool = sync.Pool{New: func() interface{} { return new(routeScratch) }}

// buildReplicas fills the scratch's replica lists from a layout. Each
// expert's devices are appended in ascending order, which is node-major,
// so the per-node boundaries are a prefix sum of per-node counts.
func (sc *routeScratch) buildReplicas(l *Layout, topo *topology.Topology) {
	nn := topo.NumNodes
	if cap(sc.repOff) < l.E+1 {
		sc.repOff = make([]int, l.E+1)
	}
	sc.repOff = sc.repOff[:l.E+1]
	if need := l.E * (nn + 1); cap(sc.nodeOff) < need {
		sc.nodeOff = make([]int, need)
	}
	sc.nodeOff = sc.nodeOff[:l.E*(nn+1)]
	sc.repArena = sc.repArena[:0]
	for j := 0; j < l.E; j++ {
		sc.repOff[j] = len(sc.repArena)
		base := j * (nn + 1)
		for k := 0; k <= nn; k++ {
			sc.nodeOff[base+k] = 0
		}
		for d, v := range l.A[j] {
			if v == 0 {
				continue
			}
			for k := 0; k < v; k++ {
				sc.repArena = append(sc.repArena, d)
			}
			sc.nodeOff[base+1+topo.Node(d)] += v
		}
		sc.nodeOff[base] = sc.repOff[j]
		for k := 1; k <= nn; k++ {
			sc.nodeOff[base+k] += sc.nodeOff[base+k-1]
		}
	}
	sc.repOff[l.E] = len(sc.repArena)
}

// forEachAssignment streams the Alg. 3 token assignments of (r, l) in
// deterministic (rank, expert, target) order without materializing a
// Dispatch: for each expert, if replicas exist within the rank's node its
// tokens split evenly among those intra-node replicas, otherwise among all
// replicas globally. Even splits of indivisible counts hand the remainder
// out starting at offset (rank+expert) mod len(targets), so no replica is
// systematically favoured. The callback additionally receives whether src
// and dst share a node — known for free from the node-major replica
// segments, so cost accumulation does not re-derive it per assignment.
// The scratch must have been prepared with buildReplicas for this layout.
// Both LiteRouting and the solver's incremental candidate evaluation
// consume this single implementation, which is what keeps their costs
// bit-identical.
func forEachAssignment(r *trace.RoutingMatrix, l *Layout, topo *topology.Topology, sc *routeScratch, fn func(src, expert, dst, tokens int, sameNode bool)) {
	nn := topo.NumNodes
	for rank := 0; rank < r.N; rank++ {
		node := topo.Node(rank)
		row := r.R[rank]
		for j := 0; j < r.E; j++ {
			tokens := row[j]
			if tokens == 0 {
				continue
			}
			base := j * (nn + 1)
			if lo, hi := sc.nodeOff[base+node], sc.nodeOff[base+node+1]; lo < hi {
				// Intra-node split: every target shares the rank's node.
				if hi-lo == 1 {
					fn(rank, j, sc.repArena[lo], tokens, true)
					continue
				}
				targets := sc.repArena[lo:hi]
				n := len(targets)
				bs, rem := tokens/n, tokens%n
				for idx, dev := range targets {
					t := bs
					if (idx+rank+j)%n < rem {
						t++
					}
					if t > 0 {
						fn(rank, j, dev, t, true)
					}
				}
				continue
			}
			// Global split — which only runs when the rank's node holds no
			// replica of this expert, so no target can share its node and
			// the relation is the constant false. A single replica (the
			// common case at large E, where most experts get exactly one
			// slot) additionally skips the split arithmetic.
			start, end := sc.repOff[j], sc.repOff[j+1]
			if end-start == 1 {
				fn(rank, j, sc.repArena[start], tokens, false)
				continue
			}
			targets := sc.repArena[start:end]
			n := len(targets)
			bs, rem := tokens/n, tokens%n
			for idx, dev := range targets {
				t := bs
				if (idx+rank+j)%n < rem {
					t++
				}
				if t > 0 {
					fn(rank, j, dev, t, false)
				}
			}
		}
	}
}

// assignmentCount returns how many assignments forEachAssignment emits
// for r over the layout the scratch was built from, without walking them:
// T tokens split evenly over n targets leave min(T, n) non-empty shares,
// and the targets are the rank's intra-node replicas when there are any,
// otherwise every replica of the expert.
func (sc *routeScratch) assignmentCount(r *trace.RoutingMatrix, topo *topology.Topology) int {
	nn := topo.NumNodes
	count := 0
	for rank := 0; rank < r.N; rank++ {
		node := topo.Node(rank)
		for j, tokens := range r.R[rank] {
			if tokens == 0 {
				continue
			}
			base := j*(nn+1) + node
			n := sc.nodeOff[base+1] - sc.nodeOff[base]
			if n == 0 {
				n = sc.repOff[j+1] - sc.repOff[j]
			}
			count += min(tokens, n)
		}
	}
	return count
}

// LiteRouting implements Alg. 3, run from the perspective of every source
// rank. The algorithm needs only the global expert layout, no global
// routing information, so it can run synchronously on every rank without
// coordination (Sec. 3.2).
func LiteRouting(r *trace.RoutingMatrix, l *Layout, topo *topology.Topology) *Dispatch {
	if r.E != l.E || r.N != l.N {
		panic(fmt.Sprintf("planner: routing matrix %dx%d does not match layout %dx%d", r.N, r.E, l.N, l.E))
	}
	d := &Dispatch{N: r.N, E: r.E}
	sc := routePool.Get().(*routeScratch)
	sc.buildReplicas(l, topo)
	// Tokens routed to a replica-less node split across every replica
	// globally, so the assignment count can far exceed N*E; sizing exactly
	// avoids the append-growth copies that otherwise dominate the router's
	// allocation profile.
	d.Assignments = make([]Assignment, 0, sc.assignmentCount(r, topo))
	loads := make([]int, d.N)
	forEachAssignment(r, l, topo, sc, func(src, expert, dst, tokens int, _ bool) {
		d.Assignments = append(d.Assignments, Assignment{Src: src, Expert: expert, Dst: dst, Tokens: tokens})
		loads[dst] += tokens
	})
	routePool.Put(sc)
	d.loads = loads
	return d
}

// LiteTraffic is LiteRouting in the traffic form: one walk of the same
// Alg. 3 assignments into per-device received tokens and per-(src, dst)
// token counts, with no sizing pass and no Assignments slice. The
// executor prices a layer from nothing else, so a training iteration
// simulates the same bits from either form.
func LiteTraffic(r *trace.RoutingMatrix, l *Layout, topo *topology.Topology) *Dispatch {
	if r.E != l.E || r.N != l.N {
		panic(fmt.Sprintf("planner: routing matrix %dx%d does not match layout %dx%d", r.N, r.E, l.N, l.E))
	}
	n := r.N
	d := &Dispatch{N: n, E: r.E, loads: make([]int, n), pairs: make([]int32, n*n)}
	loads, pairs := d.loads, d.pairs
	sc := routePool.Get().(*routeScratch)
	sc.buildReplicas(l, topo)
	forEachAssignment(r, l, topo, sc, func(src, _, dst, tokens int, _ bool) {
		loads[dst] += tokens
		pairs[src*n+dst] += int32(tokens)
	})
	routePool.Put(sc)
	checkPairRange(loads)
	return d
}

// LoadImbalance is the balance metric of Fig. 10b: the maximum of the
// per-device received token loads over their mean across the live
// devices (1.0 = perfect; 1 when no tokens flow). The balanced reference
// spreads over live devices only: masked devices host no replicas and
// receive no tokens, so counting them in the mean would report a degraded
// cluster as spuriously imbalanced. The integer total is exact in
// float64, so every caller computes the same bits from the same loads.
func LoadImbalance(loads []int, live int) float64 {
	total, maxLoad := 0, 0
	for _, v := range loads {
		total += v
		maxLoad = max(maxLoad, v)
	}
	if total == 0 {
		return 1
	}
	return float64(maxLoad) / (float64(total) / float64(live))
}

// EPRouting is the routing of traditional expert parallelism under the
// StaticEP layout: tokens on device i for expert j go to the owner of j
// within i's own EP group — no choice, no balancing (Fig. 6a).
func EPRouting(r *trace.RoutingMatrix, c int) (*Dispatch, error) {
	if c <= 0 || r.E%c != 0 {
		return nil, fmt.Errorf("planner: expert count %d not divisible by capacity %d", r.E, c)
	}
	pep := r.E / c
	if r.N%pep != 0 {
		return nil, fmt.Errorf("planner: device count %d not divisible by EP size %d", r.N, pep)
	}
	var as []Assignment
	for i := 0; i < r.N; i++ {
		groupStart := (i / pep) * pep
		for j := 0; j < r.E; j++ {
			if r.R[i][j] == 0 {
				continue
			}
			owner := groupStart + j/c
			as = append(as, Assignment{Src: i, Expert: j, Dst: owner, Tokens: r.R[i][j]})
		}
	}
	return NewDispatch(r.N, r.E, as), nil
}

// NaiveReplicaRouting routes every token to the first replica of its
// expert (lowest device index) — the strawman the lite router is compared
// against in tests and benches.
func NaiveReplicaRouting(r *trace.RoutingMatrix, l *Layout) *Dispatch {
	var as []Assignment
	for i := 0; i < r.N; i++ {
		for j := 0; j < r.E; j++ {
			if r.R[i][j] == 0 {
				continue
			}
			devs := l.ReplicaDevices(j)
			sort.Ints(devs)
			as = append(as, Assignment{Src: i, Expert: j, Dst: devs[0], Tokens: r.R[i][j]})
		}
	}
	return NewDispatch(r.N, r.E, as)
}

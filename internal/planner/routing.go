package planner

import (
	"fmt"
	"sort"
	"sync"

	"laermoe/internal/comm"
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

// Dispatch is a sparse representation of S[i][j][k].
type Dispatch struct {
	N, E        int
	Assignments []Assignment

	// loads caches the per-device received token counts when the dispatch
	// was produced by one of the package's routers, saving the
	// O(assignments) recomputation on the executor's per-layer queries.
	loads []int
}

// ReceivedLoads returns, per device, the number of assignments it computes
// (Σ_{k,j} S[k][j][i] — the per-device expert workload).
func (d *Dispatch) ReceivedLoads() []int {
	out := make([]int, d.N)
	if d.loads != nil {
		copy(out, d.loads)
		return out
	}
	for _, a := range d.Assignments {
		out[a.Dst] += a.Tokens
	}
	return out
}

// AppendReceivedLoads appends the per-device received token counts to
// dst (which may be nil, or a truncated buffer whose capacity is reused)
// and returns it — the non-allocating variant of ReceivedLoads for
// per-layer hot paths.
func (d *Dispatch) AppendReceivedLoads(dst []int) []int {
	if d.loads != nil {
		return append(dst, d.loads...)
	}
	start := len(dst)
	for i := 0; i < d.N; i++ {
		dst = append(dst, 0)
	}
	out := dst[start:]
	for _, a := range d.Assignments {
		out[a.Dst] += a.Tokens
	}
	return dst
}

// cacheLoads computes and stores the received-load cache.
func (d *Dispatch) cacheLoads() {
	loads := make([]int, d.N)
	for _, a := range d.Assignments {
		loads[a.Dst] += a.Tokens
	}
	d.loads = loads
}

// SentLoads returns, per device, the number of assignments it originates.
func (d *Dispatch) SentLoads() []int {
	out := make([]int, d.N)
	for _, a := range d.Assignments {
		out[a.Src] += a.Tokens
	}
	return out
}

// FillVolumeMatrix overwrites vol, an N x N matrix the caller reuses
// across dispatches, with the dispatch's All-to-All byte volumes at
// tokenBytes per assignment. Local assignments (Src==Dst) move no bytes.
func (d *Dispatch) FillVolumeMatrix(vol *comm.VolumeMatrix, tokenBytes float64) {
	if vol.N != d.N {
		panic(fmt.Sprintf("planner: %d-device volume matrix for a %d-device dispatch", vol.N, d.N))
	}
	for _, row := range vol.Bytes {
		clear(row)
	}
	for _, a := range d.Assignments {
		if a.Src != a.Dst {
			vol.Add(a.Src, a.Dst, float64(a.Tokens)*tokenBytes)
		}
	}
}

// CrossNodeTokens returns the number of assignments that cross a node
// boundary — the quantity lite routing minimizes.
func (d *Dispatch) CrossNodeTokens(topo *topology.Topology) int {
	n := 0
	for _, a := range d.Assignments {
		if !topo.SameNode(a.Src, a.Dst) {
			n += a.Tokens
		}
	}
	return n
}

// Validate checks conservation against the routing matrix: for every
// (device, expert), dispatched tokens must equal R[i][j], and every
// destination must host a replica of the expert.
func (d *Dispatch) Validate(r *trace.RoutingMatrix, l *Layout) error {
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
// subrange instead of a scan. Instances recycle through routePool so that
// steady-state routing and layout evaluation allocate nothing.
type routeScratch struct {
	repArena []int
	repOff   []int // len E+1; replicas of expert j are repArena[repOff[j]:repOff[j+1]]
	nodeOff  []int // len E*(nn+1); expert j's node-k replicas are repArena[nodeOff[j*(nn+1)+k]:nodeOff[j*(nn+1)+k+1]]
	loads    []int
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

// LiteImbalance returns the max/mean per-device received token load of
// the Alg. 3 lite routing of (r, l) — the balance a planner predicts for
// a layout under a routing matrix (1.0 = perfect; 1 when no tokens flow)
// — without materializing the Dispatch: assignments stream through a
// pooled scratch straight into per-device accumulators, so the per-layer
// decision reporting of the online engine and the laer-serve daemon does
// not resurrect the allocation profile LiteRouting was carved out of the
// solve path to avoid.
func LiteImbalance(r *trace.RoutingMatrix, l *Layout, topo *topology.Topology) float64 {
	if r.E != l.E || r.N != l.N {
		panic(fmt.Sprintf("planner: routing matrix %dx%d does not match layout %dx%d", r.N, r.E, l.N, l.E))
	}
	sc := routePool.Get().(*routeScratch)
	sc.buildReplicas(l, topo)
	if cap(sc.loads) < r.N {
		sc.loads = make([]int, r.N)
	}
	loads := sc.loads[:r.N]
	for i := range loads {
		loads[i] = 0
	}
	forEachAssignment(r, l, topo, sc, func(_, _, dst, tokens int, _ bool) {
		loads[dst] += tokens
	})
	sum := 0.0
	maxLoad := loads[0]
	for _, v := range loads {
		sum += float64(v)
		if v > maxLoad {
			maxLoad = v
		}
	}
	routePool.Put(sc)
	// The balanced reference load spreads over live devices only: masked
	// devices host no replicas and receive no tokens, so counting them in
	// the mean would report a degraded cluster as spuriously imbalanced.
	mean := sum / float64(topo.NumAvailable())
	if mean == 0 {
		return 1
	}
	return float64(maxLoad) / mean
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
	d := &Dispatch{N: r.N, E: r.E}
	for i := 0; i < r.N; i++ {
		groupStart := (i / pep) * pep
		for j := 0; j < r.E; j++ {
			if r.R[i][j] == 0 {
				continue
			}
			owner := groupStart + j/c
			d.Assignments = append(d.Assignments, Assignment{Src: i, Expert: j, Dst: owner, Tokens: r.R[i][j]})
		}
	}
	d.cacheLoads()
	return d, nil
}

// NaiveReplicaRouting routes every token to the first replica of its
// expert (lowest device index) — the strawman the lite router is compared
// against in tests and benches.
func NaiveReplicaRouting(r *trace.RoutingMatrix, l *Layout) *Dispatch {
	d := &Dispatch{N: r.N, E: r.E}
	for i := 0; i < r.N; i++ {
		for j := 0; j < r.E; j++ {
			if r.R[i][j] == 0 {
				continue
			}
			devs := l.ReplicaDevices(j)
			sort.Ints(devs)
			d.Assignments = append(d.Assignments, Assignment{Src: i, Expert: j, Dst: devs[0], Tokens: r.R[i][j]})
		}
	}
	d.cacheLoads()
	return d
}

package planner

import (
	"fmt"
	"slices"

	"laermoe/internal/topology"
)

// ExpertRelocation implements Alg. 1: given the replica count and total
// load of each expert, place every replica on a device. Replicas are
// processed in descending order of per-replica load; each replica first
// restricts itself to the nodes currently holding the fewest replicas of
// its expert (so lite routing's intra-node splits stay balanced), then
// picks the least-loaded device with spare capacity among them. Devices
// already hosting the expert are avoided when possible — a duplicate
// replica on one device adds no routing flexibility.
func ExpertRelocation(expertRep []int, expertLoads []float64, topo *topology.Topology, c int) (*Layout, error) {
	e := len(expertRep)
	n := topo.N()
	if len(expertLoads) != e {
		return nil, fmt.Errorf("planner: %d replica counts but %d loads", e, len(expertLoads))
	}
	for j, r := range expertRep {
		if r < 1 {
			return nil, fmt.Errorf("planner: expert %d has %d replicas, need at least 1", j, r)
		}
	}
	layout := NewLayout(e, n)
	if err := placeReplicas(layout, expertRep, expertLoads, make([]float64, n), make([]int, n), topo, c, nil); err != nil {
		return nil, err
	}
	return layout, nil
}

// placeEntry is one replica awaiting placement, carrying its expert's
// average load (Alg. 1 lines 3-5).
type placeEntry struct {
	expert int
	load   float64
}

// placeScratch holds the reusable working set of placeReplicas: the sorted
// replica list and the per-(expert,node) replica counters. A nil scratch
// allocates fresh buffers (the cold path).
type placeScratch struct {
	list     []placeEntry
	nodeCnts []int
}

// placeReplicas is the greedy core of Alg. 1, generalized to start from a
// partially filled layout: it places expertRep[j] additional replicas of
// each expert j (0 places nothing) onto layout, whose existing replicas
// must already be accounted in deviceLoads and deviceCount. The warm-start
// solver uses it to re-place only the experts whose load drifted while
// every other expert keeps its previous devices, passing a reusable ps so
// steady-state warm solves allocate nothing; nil allocates a fresh one.
func placeReplicas(layout *Layout, expertRep []int, expertLoads []float64, deviceLoads []float64, deviceCount []int, topo *topology.Topology, c int, ps *placeScratch) error {
	e, n := layout.E, layout.N
	if len(expertRep) != e || len(expertLoads) != e {
		return fmt.Errorf("planner: %d replica counts / %d loads for %d experts", len(expertRep), len(expertLoads), e)
	}
	total := 0
	for j, r := range expertRep {
		if r < 0 {
			return fmt.Errorf("planner: expert %d has negative replica count %d", j, r)
		}
		total += r
	}
	existing := 0
	for _, cnt := range deviceCount {
		existing += cnt
	}
	// The slot budget counts available devices only: a masked (failed)
	// device contributes no capacity and is never a placement target.
	if slots := topo.NumAvailable() * c; existing+total > slots {
		return fmt.Errorf("planner: %d replicas exceed %d capacity slots", existing+total, slots)
	}
	if ps == nil {
		ps = &placeScratch{}
	}

	// Lines 3-5: one entry per replica carrying the expert's average load,
	// sorted by descending load (stable on expert index).
	list := ps.list[:0]
	if cap(list) < total {
		list = make([]placeEntry, 0, total)
	}
	for j := 0; j < e; j++ {
		if expertRep[j] == 0 {
			continue
		}
		avg := expertLoads[j] / float64(expertRep[j])
		for r := 0; r < expertRep[j]; r++ {
			list = append(list, placeEntry{expert: j, load: avg})
		}
	}
	ps.list = list
	slices.SortStableFunc(list, func(a, b placeEntry) int {
		switch {
		case a.load > b.load:
			return -1
		case a.load < b.load:
			return 1
		default:
			return a.expert - b.expert
		}
	})

	// nodeCnts[j*numNodes+node] tracks expert j's replicas per node,
	// maintained incrementally as replicas place (replacing a per-replica
	// recount over the whole layout). Seeded from the base layout so a
	// warm start's kept replicas keep counting toward intra-node balance.
	nn := topo.NumNodes
	if cap(ps.nodeCnts) < e*nn {
		ps.nodeCnts = make([]int, e*nn)
	}
	nodeCnts := ps.nodeCnts[:e*nn]
	for i := range nodeCnts {
		nodeCnts[i] = 0
	}
	for j := 0; j < e; j++ {
		for d, v := range layout.A[j] {
			if v > 0 {
				nodeCnts[j*nn+topo.Node(d)] += v
			}
		}
	}

	for _, it := range list {
		// Lines 7-9: nodes with the fewest replicas of this expert. Only
		// alive nodes count — a failed node has zero replicas of every
		// expert and would otherwise pin minCnt at 0 forever, emptying the
		// candidate device set.
		nodeCnt := nodeCnts[it.expert*nn : (it.expert+1)*nn]
		minCnt := -1
		for nd, v := range nodeCnt {
			if !topo.NodeAlive(nd) {
				continue
			}
			if minCnt == -1 || v < minCnt {
				minCnt = v
			}
		}
		// Line 10: least-loaded available device with capacity in a min
		// node, preferring devices not yet hosting this expert.
		pick := func(allowDup bool) int {
			best := -1
			for d := 0; d < n; d++ {
				if deviceCount[d] >= c || nodeCnt[topo.Node(d)] != minCnt || !topo.Available(d) {
					continue
				}
				if !allowDup && layout.A[it.expert][d] > 0 {
					continue
				}
				if best == -1 || deviceLoads[d] < deviceLoads[best] {
					best = d
				}
			}
			return best
		}
		dev := pick(false)
		if dev == -1 {
			dev = pick(true)
		}
		if dev == -1 {
			// Min-count nodes are full; fall back to any available device
			// with spare capacity (least loaded).
			for d := 0; d < n; d++ {
				if deviceCount[d] >= c || !topo.Available(d) {
					continue
				}
				if dev == -1 || deviceLoads[d] < deviceLoads[dev] {
					dev = d
				}
			}
		}
		if dev == -1 {
			return fmt.Errorf("planner: no device with spare capacity for expert %d", it.expert)
		}
		// Lines 11-13.
		layout.A[it.expert][dev]++
		nodeCnts[it.expert*nn+topo.Node(dev)]++
		deviceLoads[dev] += it.load
		deviceCount[dev]++
	}
	return nil
}

// migrationMovesRows is MigrationMoves restricted to the given expert
// rows: when two layouts are known to agree outside those rows (the warm
// solver's incremental candidates), counting the rest is wasted work.
func migrationMovesRows(prev, next *Layout, rows []int) int {
	moves := 0
	for _, j := range rows {
		prow, nrow := prev.A[j], next.A[j]
		for d := range nrow {
			if delta := nrow[d] - prow[d]; delta > 0 {
				moves += delta
			}
		}
	}
	return moves
}

// MigrationMoves returns the number of expert replicas that must be
// restored onto a device that did not host them before — the relocation
// volume of switching from prev to next:
//
//	Σ_j Σ_d max(0, next.A[j][d] − prev.A[j][d])
//
// Under FSEP the move is free (parameters are re-gathered every layer
// anyway); traditional relocation schemes pay parameters plus optimizer
// state per move (costmodel.ExpertMigrationBytes). Keeping a layout
// (prev == next) moves nothing and is answered without walking the grid.
// Panics on shape mismatch, matching LiteRouting's contract.
func MigrationMoves(prev, next *Layout) int {
	if prev.E != next.E || prev.N != next.N {
		panic(fmt.Sprintf("planner: migration between %dx%d and %dx%d layouts", prev.E, prev.N, next.E, next.N))
	}
	if prev == next {
		return 0
	}
	moves := 0
	for j := 0; j < next.E; j++ {
		for d := 0; d < next.N; d++ {
			if delta := next.A[j][d] - prev.A[j][d]; delta > 0 {
				moves += delta
			}
		}
	}
	return moves
}

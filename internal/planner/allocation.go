package planner

import (
	"fmt"
	"slices"
)

// ReplicaAllocation implements Alg. 4: starting from one replica per
// expert, repeatedly give one more replica to the expert with the highest
// average load (load divided by current replica count) until all N*C
// replica slots are used. Ties break on the lower expert index so the
// result is deterministic.
//
// The priority queue is a typed binary heap rather than container/heap:
// the N*C-E pop/push rounds would otherwise box one loadItem per
// operation through the interface{} API.
func ReplicaAllocation(expertLoads []float64, n, c int) ([]int, error) {
	return allocateReplicas(nil, expertLoads, n*c, nil)
}

// allocateReplicas is ReplicaAllocation over an explicit slot budget,
// which the warm-start solver uses to re-allocate only the slots freed by
// the experts being re-placed. It writes into reps when its capacity
// holds len(expertLoads), and uses pq as the heap when its capacity does,
// so steady-state warm solves allocate nothing; nil allocates either.
func allocateReplicas(reps []int, expertLoads []float64, slots int, pq loadHeap) ([]int, error) {
	e := len(expertLoads)
	if e == 0 {
		return nil, fmt.Errorf("planner: no experts")
	}
	if slots < e {
		return nil, fmt.Errorf("planner: %d replica slots cannot cover %d experts", slots, e)
	}
	if cap(reps) < e {
		reps = make([]int, e)
	}
	reps = reps[:e]
	if cap(pq) < e {
		pq = make(loadHeap, e)
	}
	pq = pq[:e]
	for j := 0; j < e; j++ {
		reps[j] = 1
		pq[j] = loadItem{expert: j, avgLoad: expertLoads[j]}
	}
	for j := len(pq)/2 - 1; j >= 0; j-- {
		pq.siftDown(j)
	}
	for used := e; used < slots; used++ {
		j := pq[0].expert
		reps[j]++
		// Replace the root in place with the expert's new average load.
		pq[0].avgLoad = expertLoads[j] / float64(reps[j])
		pq.siftDown(0)
	}
	return reps, nil
}

// EvenAllocation implements the uniform scheme of Alg. 2 line 3: every
// expert receives floor(N*C/E) replicas, and the remainder (when E does
// not divide N*C) is assigned to the highest-load experts so all slots are
// used and Eq. 3 can hold with equality.
func EvenAllocation(expertLoads []float64, n, c int) ([]int, error) {
	return allocateEven(nil, expertLoads, n*c, nil)
}

// allocateEven is EvenAllocation over an explicit slot budget, writing
// into reps and sorting through order when their capacities suffice (nil
// allocates either).
func allocateEven(reps []int, expertLoads []float64, slots int, order []int) ([]int, error) {
	e := len(expertLoads)
	if e == 0 {
		return nil, fmt.Errorf("planner: no experts")
	}
	if slots < e {
		return nil, fmt.Errorf("planner: %d replica slots cannot cover %d experts", slots, e)
	}
	if cap(reps) < e {
		reps = make([]int, e)
	}
	reps = reps[:e]
	base := slots / e
	for j := range reps {
		reps[j] = base
	}
	rem := slots - base*e
	if rem > 0 {
		order = argsortDesc(order, expertLoads)
		for k := 0; k < rem; k++ {
			reps[order[k%e]]++
		}
	}
	return reps, nil
}

// loadItem orders experts by average load, highest first.
type loadItem struct {
	expert  int
	avgLoad float64
}

type loadHeap []loadItem

func (h loadHeap) less(i, j int) bool {
	if h[i].avgLoad != h[j].avgLoad {
		return h[i].avgLoad > h[j].avgLoad
	}
	return h[i].expert < h[j].expert
}

// siftDown restores the heap property below index i.
func (h loadHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h) && h.less(l, best) {
			best = l
		}
		if r < len(h) && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// argsortDesc returns the indices of xs sorted by descending value with
// stable index tie-break, reusing idx's capacity. The (value desc, index
// asc) key is a total order, so a plain sort is deterministic; the
// previous insertion sort went quadratic at production expert counts.
func argsortDesc(idx []int, xs []float64) []int {
	if cap(idx) < len(xs) {
		idx = make([]int, len(xs))
	}
	idx = idx[:len(xs)]
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case xs[a] > xs[b]:
			return -1
		case xs[a] < xs[b]:
			return 1
		default:
			return a - b
		}
	})
	return idx
}

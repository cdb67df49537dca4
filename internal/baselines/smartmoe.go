package baselines

import (
	"sort"
	"time"

	"laermoe/internal/executor"
	"laermoe/internal/planner"
	"laermoe/internal/stats"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// SmartMoE reproduces the relocation-only online adjustment of SmartMoE
// (Zhai et al., ATC 2023): expert *locations* are re-optimized from
// historical load at a deliberately low frequency (the original regulates
// to hundreds of iterations to bound re-layout overhead), experts are
// never replicated beyond their data-parallel copies, and each relocation
// pays an explicit migration cost of roughly 6x the expert parameter size
// (parameters + optimizer state) on the iteration where it happens.
type SmartMoE struct {
	Topo *topology.Topology
	C    int
	// Interval is the number of iterations between re-layouts.
	Interval int
	// MigrationSeconds is the wire cost of moving one expert (params +
	// optimizer state) between devices.
	MigrationSeconds float64

	history     []*stats.VectorEMA // per layer, per expert load EMA
	assignments [][]int            // per layer: expert -> EP-group slot
	iter        int
	plannerTime float64
}

// NewSmartMoE builds the scheduler with identity placement.
func NewSmartMoE(topo *topology.Topology, layers, e, c, interval int, migrationSeconds float64) (*SmartMoE, error) {
	if _, err := planner.StaticEP(e, topo.N(), c); err != nil {
		return nil, err // validates divisibility
	}
	s := &SmartMoE{
		Topo: topo, C: c, Interval: interval, MigrationSeconds: migrationSeconds,
		history:     make([]*stats.VectorEMA, layers),
		assignments: make([][]int, layers),
	}
	for l := 0; l < layers; l++ {
		ema, err := stats.NewVectorEMA(0.3, e)
		if err != nil {
			return nil, err
		}
		s.history[l] = ema
		s.assignments[l] = make([]int, e)
		for j := 0; j < e; j++ {
			s.assignments[l][j] = j / c // identity: slot = expert block
		}
	}
	return s, nil
}

// PlannerTime implements Scheduler.
func (s *SmartMoE) PlannerTime() float64 { return s.plannerTime }

// Plan implements Scheduler.
func (s *SmartMoE) Plan(routing []*trace.RoutingMatrix) ([]executor.LayerPlan, error) {
	plans := make([]executor.LayerPlan, len(routing))
	start := time.Now()
	relayout := s.iter > 0 && s.iter%s.Interval == 0
	for l, r := range routing {
		s.history[l].Observe(r.ExpertLoads())
		extra := 0.0
		if relayout {
			moved := s.resolve(l)
			extra = float64(moved) * s.MigrationSeconds
		}
		layout := s.layoutFor(l, r.E, r.N)
		plans[l] = executor.LayerPlan{
			Layout:            layout,
			Dispatch:          s.groupLocalRouting(r, l),
			ExtraRelayoutTime: extra,
		}
	}
	s.iter++
	s.plannerTime = time.Since(start).Seconds()
	return plans, nil
}

// resolve reassigns experts to EP-group slots so hot and cold experts are
// co-located (greedy longest-processing-time packing), returning the
// number of experts that changed slots.
func (s *SmartMoE) resolve(layer int) int {
	loads := s.history[layer].Values()
	e := len(loads)
	pep := e / s.C
	order := make([]int, e)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]] > loads[order[b]] })
	slotLoad := make([]float64, pep)
	slotCount := make([]int, pep)
	next := make([]int, e)
	for _, j := range order {
		best := -1
		for sl := 0; sl < pep; sl++ {
			if slotCount[sl] >= s.C {
				continue
			}
			if best == -1 || slotLoad[sl] < slotLoad[best] {
				best = sl
			}
		}
		next[j] = best
		slotLoad[best] += loads[j]
		slotCount[best]++
	}
	moved := 0
	for j := 0; j < e; j++ {
		if next[j] != s.assignments[layer][j] {
			moved++
		}
	}
	s.assignments[layer] = next
	return moved
}

// layoutFor materializes the slot assignment as a layout: slot sl of every
// EP group hosts the experts assigned to sl.
func (s *SmartMoE) layoutFor(layer, e, n int) *planner.Layout {
	pep := e / s.C
	l := planner.NewLayout(e, n)
	for j := 0; j < e; j++ {
		slot := s.assignments[layer][j]
		for g := 0; g*pep < n; g++ {
			l.A[j][g*pep+slot] = 1
		}
	}
	return l
}

// groupLocalRouting routes every token to the copy of its expert inside
// the source device's own EP group — SmartMoE relocates experts but keeps
// vanilla EP routing semantics.
func (s *SmartMoE) groupLocalRouting(r *trace.RoutingMatrix, layer int) *planner.Dispatch {
	e := r.E
	pep := e / s.C
	var as []planner.Assignment
	for i := 0; i < r.N; i++ {
		groupStart := (i / pep) * pep
		for j := 0; j < e; j++ {
			if r.R[i][j] == 0 {
				continue
			}
			owner := groupStart + s.assignments[layer][j]
			as = append(as, planner.Assignment{
				Src: i, Expert: j, Dst: owner, Tokens: r.R[i][j],
			})
		}
	}
	return planner.NewDispatch(r.N, e, as)
}

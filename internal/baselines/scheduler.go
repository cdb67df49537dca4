// Package baselines implements the expert-layout schedulers the paper
// compares against, plus the LAER planner's scheduler wrapper. A scheduler
// turns each iteration's observed routing into per-layer execution plans
// (expert layout + token dispatch); the executor is shared.
//
//   - Static EP: the fixed layout of vanilla expert parallelism, used by
//     both the Megatron and FSDP+EP baselines (GShard-style).
//   - FlexMoE: replication + relocation with an adjustment-cost penalty and
//     incremental per-iteration moves (Nie et al., reproduced as in
//     Sec. 5.1: its scheduler drives the FSEP substrate).
//   - SmartMoE: relocation-only, re-solved at a low frequency, paying
//     explicit migration cost (Zhai et al.).
//   - FasterMoE: per-iteration shadowing of hot experts onto every device,
//     paying broadcast + gradient all-reduce for shadows (He et al.).
//   - LAER: the paper's asynchronous planner (Alg. 1-4) on FSEP.
package baselines

import (
	"fmt"
	"time"

	"laermoe/internal/executor"
	"laermoe/internal/planner"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// Scheduler produces the per-layer plans for one iteration from the
// iteration's routing matrices. Implementations keep whatever history
// their policy requires; Plan is called once per iteration in order.
type Scheduler interface {
	Plan(routing []*trace.RoutingMatrix) ([]executor.LayerPlan, error)
	// PlannerTime reports the CPU time spent making re-layout decisions
	// during the last Plan call (informational; the paper's planner runs
	// asynchronously on the CPU).
	PlannerTime() float64
}

// StaticEP is the no-balancing baseline: the layout never changes and
// tokens go to the owner within the source device's EP group.
type StaticEP struct {
	C      int
	layout *planner.Layout
}

// NewStaticEP builds the scheduler for E experts on N devices.
func NewStaticEP(e, n, c int) (*StaticEP, error) {
	l, err := planner.StaticEP(e, n, c)
	if err != nil {
		return nil, err
	}
	return &StaticEP{C: c, layout: l}, nil
}

// PlannerTime implements Scheduler; static layouts need no planning.
func (s *StaticEP) PlannerTime() float64 { return 0 }

// Plan implements Scheduler.
func (s *StaticEP) Plan(routing []*trace.RoutingMatrix) ([]executor.LayerPlan, error) {
	plans := make([]executor.LayerPlan, len(routing))
	for l, r := range routing {
		d, err := planner.EPRouting(r, s.C)
		if err != nil {
			return nil, err
		}
		plans[l] = executor.LayerPlan{Layout: s.layout, Dispatch: d}
	}
	return plans, nil
}

// BalancedOracle routes as if expert load were perfectly balanceable: it
// uses the true routing totals per device but spreads received work evenly
// (the "balanced" condition of Fig. 1b — an upper bound, not a system).
type BalancedOracle struct {
	Topo *topology.Topology
	C    int
}

// PlannerTime implements Scheduler.
func (s *BalancedOracle) PlannerTime() float64 { return 0 }

// Plan implements Scheduler: each device keeps its own tokens locally and
// the per-device load equals the global mean by construction.
func (s *BalancedOracle) Plan(routing []*trace.RoutingMatrix) ([]executor.LayerPlan, error) {
	plans := make([]executor.LayerPlan, len(routing))
	for li, r := range routing {
		bal := trace.Balanced(r.N, r.E, r.Total()/r.N, 1)
		layout, err := planner.StaticEP(r.E, r.N, s.C)
		if err != nil {
			return nil, err
		}
		d, err := planner.EPRouting(bal, s.C)
		if err != nil {
			return nil, err
		}
		plans[li] = executor.LayerPlan{Layout: layout, Dispatch: d}
	}
	return plans, nil
}

// LAER wraps the paper's asynchronous planner: layouts come from history
// (solved during the previous iteration, Fig. 7), dispatch maps the actual
// routing onto them with lite routing, and the observation feeds the next
// iteration's solve.
type LAER struct {
	P           *planner.Planner
	plannerTime float64
}

// NewLAER builds the scheduler.
func NewLAER(p *planner.Planner) *LAER { return &LAER{P: p} }

// PlannerTime implements Scheduler.
func (s *LAER) PlannerTime() float64 { return s.plannerTime }

// Plan implements Scheduler.
func (s *LAER) Plan(routing []*trace.RoutingMatrix) ([]executor.LayerPlan, error) {
	if len(routing) != s.P.Layers {
		return nil, fmt.Errorf("laer: %d routing matrices for %d layers", len(routing), s.P.Layers)
	}
	plans := make([]executor.LayerPlan, len(routing))
	var solveTime time.Duration
	for l, r := range routing {
		// Synchronous dispatch against the layout currently in force.
		plans[l] = executor.LayerPlan{
			Layout:   s.P.Layout(l),
			Dispatch: s.P.Dispatch(l, r),
		}
		// Asynchronous solve for the next iteration of this layer.
		start := time.Now()
		if _, err := s.P.Observe(l, r); err != nil {
			return nil, err
		}
		solveTime += time.Since(start)
	}
	s.plannerTime = solveTime.Seconds()
	return plans, nil
}

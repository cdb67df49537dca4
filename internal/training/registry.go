package training

import (
	"fmt"
	"slices"

	"laermoe/internal/forecast"
	"laermoe/internal/planner"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// This file is the single registration site for online-engine policies
// and workloads; predictor and drift model names live in one list each,
// forecast.Kinds and trace.DriftModels. Everything that used to be a
// hand-kept switch — NewOnlinePlanner's checks, RunOnline's dispatch
// branch, the CLIs' flag validation, serve's SessionSpec validation —
// resolves through the Resolve functions below, so a new policy (LLEP and
// score-balance landed this way) registers in exactly one place.

// DispatchEnv is the per-layer context a policy's dispatch function routes
// one iteration's tokens with. An env may serve one layer or, serially,
// many; Scratch persists across calls for policies that reshape the
// routing (score-balance), so steady-state reshaping stays
// allocation-free. Concurrent calls need one env each, since they would
// share Scratch.
//
// No dispatch is recycled through an env: each call returns a dispatch
// that owns its memory (see planner.Dispatch), so a caller may route every
// layer through one env and hold each result until the iteration runs.
type DispatchEnv struct {
	Routing  *trace.RoutingMatrix
	Layout   *planner.Layout
	Topo     *topology.Topology
	Capacity int
	// Restored reports that a static-EP checkpoint restore replaced the
	// initial owner layout, after which even the static policy routes by
	// layout.
	Restored bool
	// Assignments asks for the assignment form of the dispatch, for a
	// consumer that reads single assignments (the inference latency
	// meter). The zero value asks for traffic only: the lite-routing
	// policies then return the traffic form, which is all an executed
	// iteration reads. Policies whose router builds assignments anyway
	// (static EP, LLEP) ignore it.
	Assignments bool
	// Scratch is a policy-owned routing matrix reused across dispatch
	// calls (nil until first use).
	Scratch *trace.RoutingMatrix
}

// DispatchFunc routes one layer's observed routing onto the devices.
type DispatchFunc func(env *DispatchEnv) (*planner.Dispatch, error)

// PolicySpec is one replan policy's registry entry: its traits drive the
// engine (replacing per-policy switches), its Dispatch routes tokens each
// iteration.
type PolicySpec struct {
	Name ReplanPolicy

	// Replans: the policy plans re-layouts from observations (static-like
	// policies keep the initial layout and skip Observe/PlanBoundary
	// work entirely). WarmStarts: the policy re-solves from the layout in
	// force (incrementally, drift-tracked unless
	// OnlineConfig.DisableIncremental) rather than from scratch.
	// Predictive: the policy forecasts loads at epoch boundaries.
	Replans    bool
	WarmStarts bool
	Predictive bool

	// Dispatch routes one layer-iteration. Every entry sets it: the
	// engine calls it unconditionally.
	Dispatch DispatchFunc
}

// Workload names what an online session plans for.
type Workload string

const (
	// WorkloadTraining is the classic multi-epoch training workload
	// (step-time objective).
	WorkloadTraining Workload = "training"
	// WorkloadInference drives request-level decode traffic through the
	// same planning loop (latency objective).
	WorkloadInference Workload = "inference"
)

// liteDispatch is layout-based Alg. 3 routing, the replanning policies'
// dispatch.
func liteDispatch(env *DispatchEnv) (*planner.Dispatch, error) {
	return liteRoute(env, env.Routing), nil
}

// liteRoute routes r by Alg. 3 on the env's layout, in the form the env
// asks for.
func liteRoute(env *DispatchEnv, r *trace.RoutingMatrix) *planner.Dispatch {
	if env.Assignments {
		return planner.LiteRouting(r, env.Layout, env.Topo)
	}
	return planner.LiteTraffic(r, env.Layout, env.Topo)
}

// policyRegistry is ordered: ReplanPolicies() and every "have %v" error
// message list names in registration order.
var policyRegistry = []PolicySpec{
	{
		Name: ReplanStatic,
		Dispatch: func(env *DispatchEnv) (*planner.Dispatch, error) {
			if !env.Restored {
				return planner.EPRouting(env.Routing, env.Capacity)
			}
			return liteDispatch(env)
		},
	},
	{
		Name:     ReplanScratch,
		Replans:  true,
		Dispatch: liteDispatch,
	},
	{
		Name:       ReplanWarm,
		Replans:    true,
		WarmStarts: true,
		Dispatch:   liteDispatch,
	},
	{
		Name:       ReplanPredictive,
		Replans:    true,
		WarmStarts: true,
		Predictive: true,
		Dispatch:   liteDispatch,
	},
	{
		Name: ReplanLLEP,
		Dispatch: func(env *DispatchEnv) (*planner.Dispatch, error) {
			return planner.LeastLoadedRouting(env.Routing, env.Layout, env.Topo), nil
		},
	},
	{
		Name: ReplanScoreBalance,
		Dispatch: func(env *DispatchEnv) (*planner.Dispatch, error) {
			env.Scratch = trace.ScoreBalanceInto(env.Scratch, env.Routing, trace.ScoreBalanceBlend)
			return liteRoute(env, env.Scratch), nil
		},
	},
}

// ResolvePolicy returns a policy's registry entry, failing fast with the
// valid set on an unknown name.
func ResolvePolicy(name ReplanPolicy) (*PolicySpec, error) {
	for i := range policyRegistry {
		if policyRegistry[i].Name == name {
			return &policyRegistry[i], nil
		}
	}
	return nil, fmt.Errorf("training: unknown replan policy %q (have %v)", name, ReplanPolicies())
}

// ResolveWorkload fails fast, naming the valid set, on an unknown
// workload name.
func ResolveWorkload(name Workload) error {
	if !slices.Contains(Workloads(), name) {
		return fmt.Errorf("training: unknown workload %q (have %v)", name, Workloads())
	}
	return nil
}

// ResolvePredictor fails fast, naming the valid set, on an unknown
// predictor name.
func ResolvePredictor(name forecast.Kind) error {
	if !slices.Contains(forecast.Kinds(), name) {
		return fmt.Errorf("training: unknown predictor %q (have %v)", name, forecast.Kinds())
	}
	return nil
}

// ResolveDrift fails fast, naming the valid set, on an unknown drift
// model name.
func ResolveDrift(name trace.DriftModel) error {
	if !slices.Contains(trace.DriftModels(), name) {
		return fmt.Errorf("training: unknown drift model %q (have %v)", name, trace.DriftModels())
	}
	return nil
}

// Workloads lists every workload name.
func Workloads() []Workload { return []Workload{WorkloadTraining, WorkloadInference} }

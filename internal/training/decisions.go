package training

import (
	"fmt"

	"laermoe/internal/faults"
	"laermoe/internal/forecast"
	"laermoe/internal/model"
	"laermoe/internal/par"
	"laermoe/internal/planner"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// DecisionAction names what a planning step did to one layer's layout.
type DecisionAction string

const (
	// ActionKeep left the layout in force: the solver's keep-versus-migrate
	// score decided no re-layout was worth its churn.
	ActionKeep DecisionAction = "keep"
	// ActionWarmReplan installed an incremental warm-start re-layout
	// (observation-driven; only drifted experts re-placed).
	ActionWarmReplan DecisionAction = "warm-replan"
	// ActionScratchReplan installed a from-scratch re-layout ignoring the
	// layout previously in force.
	ActionScratchReplan DecisionAction = "scratch-replan"
	// ActionPredictiveReplan installed a forecast-driven re-layout at the
	// epoch boundary, before the observation iteration executed.
	ActionPredictiveReplan DecisionAction = "predictive-replan"
	// ActionElasticRepair installed a forced re-layout after a membership
	// fault: dead replicas stripped, affected experts re-placed into the
	// surviving slots, orphaned experts restored from the checkpoint.
	ActionElasticRepair DecisionAction = "elastic-repair"
	// ActionCheckpointRestore re-read the whole layer from the checkpoint
	// onto the survivors — the static-EP baseline's only recovery move.
	ActionCheckpointRestore DecisionAction = "checkpoint-restore"
)

// LayerDecision is the re-layout decision one planning step took for one
// MoE layer: what happened, what it cost in replica moves, and the balance
// the planner expects the resulting layout to deliver. The JSON encoding is
// the wire format of the laer-serve planning service, and the online
// engine's reports carry the same structs — a service session fed the same
// observations is byte-identical to RunOnline by construction (both run
// this package's OnlinePlanner).
type LayerDecision struct {
	Layer  int            `json:"layer"`
	Action DecisionAction `json:"action"`

	// Moves is the number of expert replicas the decision relocates onto
	// devices that did not previously host them, and MigrationTime the
	// simulated seconds charged for those moves (0 on the FSEP substrate).
	Moves         int     `json:"moves"`
	MigrationTime float64 `json:"migration_time_s"`

	// PredictedImbalance is the relative max per-device token load the
	// planner expects from the layout left in force, evaluated under the
	// routing that drove the decision (the forecast for boundary decisions,
	// the observation otherwise; 1.0 = perfect balance).
	PredictedImbalance float64 `json:"predicted_imbalance"`

	// ForecastError is the realized-vs-predicted relative load error
	// attached to the decision: the previous window's error for boundary
	// decisions (the solver's confidence discount input), this window's
	// measured error for observation decisions. 0 for non-predictive runs.
	ForecastError float64 `json:"forecast_error"`

	// Restored counts the expert replicas this decision re-read from the
	// sharded checkpoint (elastic repairs restore only experts whose every
	// replica died; a static checkpoint-restore re-reads the whole layer),
	// and RestoreTime the simulated seconds charged for those reads. Both
	// are zero — and absent from the wire format — outside fault handling.
	Restored    int     `json:"restored,omitempty"`
	RestoreTime float64 `json:"restore_time_s,omitempty"`
}

// EpochSummary aggregates one epoch's planning outcome across layers,
// identically for RunOnline reports and laer-serve responses.
type EpochSummary struct {
	// Migrations counts replica moves across both planning steps of the
	// epoch and MigrationTime the seconds charged for them;
	// BoundaryMigrationTime is the portion charged by forecast-driven
	// boundary replans.
	Migrations            int     `json:"migrations"`
	MigrationTime         float64 `json:"migration_time_s"`
	BoundaryMigrationTime float64 `json:"boundary_migration_time_s"`

	// PredictedLayers counts layers whose boundary replan acted on a
	// forecast, CorrectedLayers those where the post-observation refinement
	// overrode the forecast layout, and ForecastError the mean
	// realized-vs-predicted relative load error across forecasting layers.
	PredictedLayers int     `json:"predicted_layers"`
	CorrectedLayers int     `json:"corrected_layers"`
	ForecastError   float64 `json:"forecast_error"`

	// MeanPredictedImbalance averages the observation decisions'
	// PredictedImbalance across layers (0 when no observation step ran,
	// i.e. for the static policy).
	MeanPredictedImbalance float64 `json:"mean_predicted_imbalance"`

	// FaultEvents counts the membership/degradation events applied since
	// the previous summary, Restored the expert replicas re-read from the
	// checkpoint to recover from them, and RestoreTime the simulated
	// seconds those reads charged. All zero — and absent from the wire
	// format — when no faults fired.
	FaultEvents int     `json:"fault_events,omitempty"`
	Restored    int     `json:"restored,omitempty"`
	RestoreTime float64 `json:"restore_time_s,omitempty"`

	// IncrementalSolves counts the epoch's planning-step solves that ran
	// through a bound drift tracker — amortized O(drifted experts) instead
	// of a full re-score — and FullSolves those that re-scanned the whole
	// layer (no planned loads yet, the first solve after a fault or a state
	// restore, the scratch policy, or incremental planning disabled). Their
	// sum is the epoch's solve count; both are absent from the wire format
	// when zero.
	IncrementalSolves int `json:"incremental_solves,omitempty"`
	FullSolves        int `json:"full_solves,omitempty"`
}

// OnlinePlanner is the per-epoch re-layout decision core shared by
// RunOnline and the laer-serve planning service: one layerState per MoE
// layer (its planner.Layer, which owns the layout in force, its planned
// loads, solver and drift tracker, plus the layer's forecaster and this
// epoch's outcome). An epoch is driven as PlanBoundary
// (forecast-driven boundary replans, a no-op for reactive policies)
// followed by Observe (the post-observation reactive replan), after which
// Summarize reports the epoch's aggregate outcome.
//
// The planner is deterministic: the same construction config and the same
// observation sequence produce byte-identical decisions at any Parallelism
// setting and on any shared Pool. It is not safe for concurrent use; the
// service serializes each session on its own planner.
type OnlinePlanner struct {
	cfg   OnlineConfig
	spec  *PolicySpec
	setup *Setup
	arch  *model.Config
	topo  *topology.Topology

	layers int
	n      int

	// layouts is the view Layouts hands the executor: each layer's
	// layout in force, refreshed from state on every call.
	layouts []*planner.Layout
	state   []layerState

	pred      bool
	confThr   float64
	perDevice int

	// scoreMigCost is the per-replica migration charge amortized over the
	// epoch's remaining micro-batches, the keep-versus-migrate score input.
	scoreMigCost float64

	// Elastic recovery state. The planner owns a private clone of the
	// configured topology so fault events mutate nothing the caller holds;
	// restoreCost is the per-replica checkpoint read charge. faultEvents
	// feeds the next Summarize; staticRestored records that the static
	// policy abandoned its fixed EP groups for a checkpoint-restored
	// layout.
	restoreCost    float64
	faultEvents    int
	staticRestored bool

	workers int
	pool    *par.Pool

	observed bool // Observe ran this epoch
}

// The two planning steps of an epoch, indexing layerState.step.
const (
	stepBoundary = iota // forecast-driven, before the epoch's first iteration
	stepObserve         // after the observation iteration
)

// layerState is everything one MoE layer plans with. Each planning step
// reads and writes only its own layer's state, so layers fan across the
// worker pool without racing.
type layerState struct {
	// plan owns the layer's re-layout state: the layout in force, the
	// loads it was planned for, the solver and (for a warm-starting policy
	// with incremental planning on) the drift tracker.
	plan *planner.Layer

	// Predictive state (zero for reactive policies).
	predictor forecast.Predictor
	fcast     []float64 // boundary forecast
	fcastMade bool      // forecast produced at this boundary
	acted     bool      // layout replanned from the forecast
	corrected bool      // refinement overrode the forecast layout
	lastErr   float64   // previous window's realized error
	boundErr  float64   // lastErr as the boundary step saw it (reporting)
	layerErr  float64   // this window's realized error (reporting)
	streak    int       // consecutive sub-threshold error windows

	// Buffers the predictive steps reuse every epoch: the forecast as a
	// routing matrix and the realized per-expert loads. Neither outlives
	// its step (plan copies what it plans for, the predictor what it
	// observes). Every synthesized row is the same, so synth's rows
	// share one backing slice: it holds E ints, not N·E, and nothing on
	// the solve path writes to a routing matrix.
	synth    *trace.RoutingMatrix
	realized []float64

	// Fault accounting: faultTime is the wall-clock charge pending for the
	// layer's critical path (consumed by TakeFaultCharge, deliberately
	// untouched by PlanBoundary: boundary faults are applied before the
	// boundary plan); faultMoves and faultRestored feed the next Summarize.
	faultTime     float64
	faultMoves    int
	faultRestored int

	// This epoch's outcome per planning step, and how many of its solves
	// ran through a bound drift tracker versus a full re-score. Cleared by
	// resetEpoch.
	step                  [2]planner.Step
	incSolves, fullSolves int
}

// NewOnlinePlanner validates the configuration (Epochs and Drift are
// RunOnline concerns and are not checked here) and builds the decision
// core: the memory plan, one warm-start solver per layer seeded exactly as
// the online engine seeds them, and the predictive policy's forecasters.
func NewOnlinePlanner(cfg OnlineConfig) (*OnlinePlanner, error) {
	cfg = cfg.withDefaults()
	spec, err := ResolvePolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	if err := ResolveWorkload(cfg.Workload); err != nil {
		return nil, err
	}
	if err := ResolvePredictor(cfg.Predictor); err != nil {
		return nil, err
	}
	if cfg.Workload == WorkloadInference {
		if err := cfg.Arrival.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.IterationsPerEpoch < 2 {
		return nil, fmt.Errorf("training: need at least 1 epoch and 2 iterations per epoch (the first iteration is the planner's observation)")
	}
	if cfg.MigrationCostPerReplica < 0 {
		return nil, fmt.Errorf("training: negative migration cost")
	}
	if cfg.ConfidenceThreshold < 0 {
		return nil, fmt.Errorf("training: negative confidence threshold %g", cfg.ConfidenceThreshold)
	}

	// The planner plans (and repairs) against its own clone of the
	// topology: fault events applied through ApplyFaults must not reach
	// the caller's Topology, and the caller mutating its copy must not
	// skew in-flight decisions. The clone is exact, so every downstream
	// computation is byte-identical to planning on the original.
	cfg.Topo = cfg.Topo.Clone()

	rc := RunConfig{
		System: SystemLAER, Arch: cfg.Arch, Topo: cfg.Topo,
		AuxLossWeight: cfg.AuxLossWeight, TraceSkew: cfg.TraceSkew,
		GlobalBatchTokens: cfg.GlobalBatchTokens, ForceTokensPerDevice: cfg.ForceTokensPerDevice,
		Seed: cfg.Seed,
	}
	if cfg.Workload == WorkloadInference && rc.GlobalBatchTokens == 0 {
		// A decode step serves whatever arrived — there is no global
		// training batch to accumulate, so an unset batch size must not
		// fall back to the training default and split each iteration
		// into thousands of micro-batches.
		rc.GlobalBatchTokens = 1
	}
	setup, err := Prepare(rc)
	if err != nil {
		return nil, err
	}
	arch, topo := cfg.Arch, cfg.Topo
	n, layers := topo.N(), arch.Layers

	initial, err := planner.StaticEP(arch.Experts, n, arch.ExpertCapacity)
	if err != nil {
		return nil, err
	}
	p := &OnlinePlanner{
		cfg: cfg, spec: spec, setup: setup, arch: arch, topo: topo,
		layers: layers, n: n,
		layouts: make([]*planner.Layout, layers),
		state:   make([]layerState, layers),
		workers: par.Workers(cfg.Parallelism),
		pool:    cfg.Pool,
	}
	p.restoreCost = cfg.RestoreCostPerReplica
	if p.restoreCost == 0 {
		p.restoreCost = CheckpointRestoreCostPerReplica(arch, topo)
	} else if p.restoreCost < 0 {
		p.restoreCost = 0
	}
	p.pred = spec.Predictive
	p.confThr = cfg.ConfidenceThreshold
	if p.confThr == 0 {
		p.confThr = DefaultConfidenceThreshold
	}
	p.perDevice = setup.TokensPerDev * arch.TopK
	for l := range p.state {
		s := &p.state[l]
		opts := planner.DefaultSolverOptions()
		opts.Seed = cfg.Seed + int64(l) + 1
		solver := planner.NewSolver(topo, arch.ExpertCapacity, setup.Params, opts)
		s.plan = planner.NewLayer(solver, initial, spec.WarmStarts, !cfg.DisableIncremental, cfg.MigrationThreshold)
		if p.pred {
			if s.predictor, err = forecast.New(cfg.Predictor, arch.Experts); err != nil {
				return nil, err
			}
			s.fcast = make([]float64, arch.Experts)
		}
	}

	// The solver's keep-versus-migrate score compares a one-off migration
	// charge against the per-micro-batch Eq. 2 cost, so the charge is
	// amortized over the migrations' beneficiaries: every micro-batch the
	// new layout will serve this epoch.
	epochWork := float64((cfg.IterationsPerEpoch - 1) * setup.MicroBatches)
	p.scoreMigCost = cfg.MigrationCostPerReplica / epochWork
	return p, nil
}

// Setup returns the resolved execution configuration (memory plan, batch
// shape, cost model) the planner scores layouts with.
func (p *OnlinePlanner) Setup() *Setup { return p.setup }

// Layers returns the number of MoE layers planned per epoch.
func (p *OnlinePlanner) Layers() int { return p.layers }

// Devices returns the cluster's device count and Experts the per-layer
// expert count — the expected shape of Observe's routing matrices.
func (p *OnlinePlanner) Devices() int { return p.n }

// Experts returns the per-layer expert count.
func (p *OnlinePlanner) Experts() int { return p.arch.Experts }

// Layouts returns the per-layer layouts currently in force. The slice and
// the layouts are owned by the planner: callers must treat them as
// read-only and must not retain either across planning steps (the next
// call refreshes the slice, and a replan recycles dropped layouts through
// the solver scratch arenas).
func (p *OnlinePlanner) Layouts() []*planner.Layout {
	for l := range p.state {
		p.layouts[l] = p.state[l].plan.Layout()
	}
	return p.layouts
}

// MigrationCharge returns the simulated seconds of migration charged on
// the critical path of iteration it (0 or 1) for layer l this epoch:
// boundary replans land on the epoch's first iteration, observation
// replans on the second.
func (p *OnlinePlanner) MigrationCharge(it, l int) float64 {
	if it != stepBoundary && it != stepObserve {
		return 0
	}
	return p.migTime(p.state[l].step[it].Moves)
}

// migTime is the simulated seconds charged for moving moves replicas.
func (p *OnlinePlanner) migTime(moves int) float64 {
	return float64(moves) * p.cfg.MigrationCostPerReplica
}

// Topo returns the planner's private topology clone — the membership and
// degradation state fault events act on. Callers may read it freely but
// must mutate it only through ApplyFaults, which keeps the layouts
// consistent with the mask.
func (p *OnlinePlanner) Topo() *topology.Topology { return p.topo }

// StaticRestored reports whether the static policy has abandoned its
// fixed EP-group layout for a checkpoint-restored one — after which its
// tokens must route by replica lookup like every other policy, since the
// EP-group owner of a token may no longer exist.
func (p *OnlinePlanner) StaticRestored() bool { return p.staticRestored }

// TakeFaultCharge drains the pending fault-recovery wall-clock charge for
// layer l — checkpoint restores plus any migration cost of the repair's
// re-placements. The engine calls it when building the first iteration
// that executes after the fault, landing recovery on that iteration's
// critical path exactly once.
func (p *OnlinePlanner) TakeFaultCharge(l int) float64 {
	s := &p.state[l]
	t := s.faultTime
	s.faultTime = 0
	return t
}

// ApplyFaults applies a batch of membership/degradation events to the
// planner's topology and forces the recovery re-layout the new membership
// demands, returning one decision per layer. The adaptive policies repair
// each layout in place — surviving replicas stay put, lost ones are
// re-placed into the surviving slots, and only experts whose every
// replica died pay a checkpoint read. The static baseline has no
// re-layout move: any replica loss forces it to re-read the whole layer
// from the checkpoint onto a load-oblivious survivor layout. Events that
// cost no replicas (joins, degradations) change only the topology and
// decide "keep" everywhere.
//
// The recovery charges are queued per layer for TakeFaultCharge; the
// decisions are deterministic at any Parallelism and on any shared Pool.
func (p *OnlinePlanner) ApplyFaults(events []faults.Event) ([]LayerDecision, error) {
	if len(events) == 0 {
		return nil, nil
	}
	for _, ev := range events {
		if err := ev.Apply(p.topo); err != nil {
			return nil, err
		}
	}
	p.faultEvents += len(events)
	if !p.spec.Replans {
		// A policy with no replan move (static, and the dispatch-time
		// baselines) can only recover by checkpoint restore.
		return p.staticRestore()
	}
	decs := make([]LayerDecision, p.layers)
	err := p.fanout(func(l int) error {
		s := &p.state[l]
		st, rerr := s.plan.Repair()
		if rerr != nil {
			return rerr
		}
		action := ActionKeep
		if st.Changed() {
			action = ActionElasticRepair
		}
		migTime := p.migTime(st.Moves)
		resTime := float64(st.Restored) * p.restoreCost
		s.faultMoves += st.Moves
		s.faultRestored += st.Restored
		s.faultTime += migTime + resTime
		decs[l] = LayerDecision{
			Layer: l, Action: action,
			Moves: st.Moves, MigrationTime: migTime,
			Restored: st.Restored, RestoreTime: resTime,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return decs, nil
}

// staticRestore is the static baseline's only recovery path: when any
// replica of the fixed layout died, the whole layer is re-read from the
// checkpoint onto an even, load-oblivious layout over the survivors. One
// layout is shared by every layer (they are identical by construction)
// and is never recycled into a solver arena.
func (p *OnlinePlanner) staticRestore() ([]LayerDecision, error) {
	lost := 0
	for d := 0; d < p.n; d++ {
		if !p.topo.Available(d) {
			lost += p.state[0].plan.Layout().DeviceCount(d)
		}
	}
	decs := make([]LayerDecision, p.layers)
	for l := range decs {
		decs[l] = LayerDecision{Layer: l, Action: ActionKeep}
	}
	if lost == 0 {
		return decs, nil
	}
	restore, err := planner.StaticRestoreLayout(p.arch.Experts, p.topo, p.arch.ExpertCapacity)
	if err != nil {
		return nil, err
	}
	total := 0
	for j := 0; j < restore.E; j++ {
		total += restore.Replicas(j)
	}
	resTime := float64(total) * p.restoreCost
	for l := range p.state {
		s := &p.state[l]
		s.plan.Reset(restore)
		s.faultRestored += total
		s.faultTime += resTime
		decs[l] = LayerDecision{
			Layer: l, Action: ActionCheckpointRestore,
			Restored: total, RestoreTime: resTime,
		}
	}
	p.staticRestored = true
	return decs, nil
}

// fanout runs fn over every layer on the shared pool when one is
// configured, else on the planner's own worker budget. Decisions are
// identical either way.
func (p *OnlinePlanner) fanout(fn func(l int) error) error {
	if p.pool != nil {
		return p.pool.ForEach(p.layers, fn)
	}
	return par.ForEach(p.workers, p.layers, fn)
}

// resetEpoch clears the per-epoch planning outcome.
func (p *OnlinePlanner) resetEpoch() {
	for l := range p.state {
		s := &p.state[l]
		s.step = [2]planner.Step{}
		s.incSolves, s.fullSolves = 0, 0
	}
	p.observed = false
}

// solveStep is one planning step's keep-or-replan decision for layer l
// against routing r, booked in s.step[step]. The layer's plan decides it
// (see planner.Layer.Replan): forecastErr discounts the keep-versus-migrate
// score for a forecast r, and plannedFor is the load vector a re-layout is
// planned for (nil: r's own expert loads).
func (p *OnlinePlanner) solveStep(l, step int, r *trace.RoutingMatrix, forecastErr float64, plannedFor []float64) error {
	s := &p.state[l]
	st, err := s.plan.Replan(r, p.scoreMigCost, forecastErr, plannedFor)
	if err != nil {
		return err
	}
	s.step[step] = st
	if st.Incremental {
		s.incSolves++
	} else {
		s.fullSolves++
	}
	return nil
}

// planBoundaryLayer is the per-layer body of the predictive boundary
// step: forecast the epoch's loads and, once the predictor has earned
// trust, install a forecast-driven re-layout before the epoch's first
// iteration executes.
func (p *OnlinePlanner) planBoundaryLayer(l int) error {
	s := &p.state[l]
	s.fcastMade, s.acted, s.corrected = false, false, false
	if !s.predictor.Ready() {
		return nil
	}
	s.predictor.ForecastInto(s.fcast)
	s.fcastMade = true
	if s.streak < trustWindows {
		return nil // shadow forecast: measure, don't act
	}
	if s.synth == nil {
		row := make([]int, len(s.fcast))
		s.synth = &trace.RoutingMatrix{N: p.n, E: len(row), R: make([][]int, p.n)}
		for i := range s.synth.R {
			s.synth.R[i] = row
		}
	}
	r := s.synth
	if err := forecast.SynthRoutingInto(r, s.fcast, p.perDevice); err != nil {
		return err
	}
	// Stash the error the solver was discounted by: PlanEpoch runs the
	// observation step (which overwrites lastErr) before the boundary
	// decisions are assembled.
	s.boundErr = s.lastErr
	if err := p.solveStep(l, stepBoundary, r, s.boundErr, s.fcast); err != nil {
		return err
	}
	s.acted = true
	return nil
}

// PlanBoundary opens an epoch: it resets the per-epoch planning state and,
// for the predictive policy, forecasts the epoch's loads and installs
// forecast-driven re-layouts for every layer whose predictor has earned
// trust — before the epoch's first iteration executes, which is what
// removes the observation lag. Returns one decision per acted layer (nil
// for reactive policies, and for epochs where no layer acted).
func (p *OnlinePlanner) PlanBoundary() ([]LayerDecision, error) {
	p.resetEpoch()
	if !p.pred {
		return nil, nil
	}
	if err := p.fanout(p.planBoundaryLayer); err != nil {
		return nil, err
	}
	return p.decisions(stepBoundary), nil
}

// Observe folds the epoch's observation — the routing realized by the
// epoch's first iteration, one matrix per layer — into the planner: the
// reactive policies replan from it (warm incrementally, scratch from
// nothing), the predictive policy measures its forecast error, updates its
// predictors and refines mispredicted boundary layouts. Returns one
// decision per layer (nil for the static policy, which never replans).
func (p *OnlinePlanner) Observe(routing []*trace.RoutingMatrix) ([]LayerDecision, error) {
	if err := p.checkRouting(routing); err != nil {
		return nil, err
	}
	if !p.spec.Replans {
		return nil, nil
	}
	p.observed = true
	err := p.fanout(func(l int) error {
		return p.observeLayer(l, routing[l])
	})
	if err != nil {
		return nil, err
	}
	return p.decisions(stepObserve), nil
}

// checkRouting validates an observation's shape against the planner's.
func (p *OnlinePlanner) checkRouting(routing []*trace.RoutingMatrix) error {
	if len(routing) != p.layers {
		return fmt.Errorf("training: %d routing matrices for %d layers", len(routing), p.layers)
	}
	for l, r := range routing {
		if r == nil || r.N != p.n || r.E != p.arch.Experts {
			return fmt.Errorf("training: layer %d routing matrix is not %dx%d", l, p.n, p.arch.Experts)
		}
	}
	return nil
}

// observeLayer is the per-layer body of the observation step. The
// predictive policy first scores its forecast against the realized loads
// and feeds them to its predictor; then every replanning policy re-solves
// from the observation. For the predictive policy that refinement keeps
// the boundary layout wherever the forecast held (the solver's
// per-expert threshold) and lets the keep-versus-migrate score decide
// whether a miss is worth a second round of migration, so acting on a
// forecast never costs more than one mispredicted iteration plus
// redoable moves.
func (p *OnlinePlanner) observeLayer(l int, r *trace.RoutingMatrix) error {
	s := &p.state[l]
	if p.pred {
		s.realized = r.ExpertLoadsInto(s.realized)
		s.layerErr = 0
		if s.fcastMade {
			s.layerErr = forecast.RelativeError(s.fcast, s.realized)
			s.lastErr = s.layerErr
			if s.layerErr <= p.confThr {
				s.streak++
			} else {
				s.streak = 0
			}
		}
		s.predictor.Observe(s.realized)
	}
	if err := p.solveStep(l, stepObserve, r, 0, nil); err != nil {
		return err
	}
	s.corrected = s.acted && s.step[stepObserve].Changed
	return nil
}

// decisions assembles one planning step's decision list: every acted
// layer for the boundary step (nil when none acted), every layer for the
// observation step.
func (p *OnlinePlanner) decisions(step int) []LayerDecision {
	var decs []LayerDecision
	if step == stepObserve {
		decs = make([]LayerDecision, 0, p.layers)
	}
	for l := range p.state {
		s := &p.state[l]
		ferr := s.layerErr
		if step == stepBoundary {
			if !s.acted {
				continue
			}
			ferr = s.boundErr
		}
		out := s.step[step]
		action := ActionKeep
		switch {
		case !out.Changed:
		case step == stepBoundary:
			action = ActionPredictiveReplan
		case !p.spec.WarmStarts:
			action = ActionScratchReplan
		default:
			action = ActionWarmReplan
		}
		decs = append(decs, LayerDecision{
			Layer: l, Action: action,
			Moves: out.Moves, MigrationTime: p.migTime(out.Moves),
			PredictedImbalance: out.Imbalance,
			ForecastError:      ferr,
		})
	}
	return decs
}

// PlanEpoch drives one epoch's boundary and observation steps as a single
// fanout over the worker pool: each layer runs its forecast-driven
// boundary plan and its post-observation replan back to back on one
// worker, instead of paying two pool dispatches (and two rounds of
// cross-layer synchronization) per epoch. The decisions are byte-identical
// to PlanBoundary followed by Observe — every planning input and output is
// per-layer state, so the two steps of one layer never read another
// layer's state. Callers that execute iterations between the two steps
// (the online engine) keep the split entry points; callers that plan both
// steps from one observation (the laer-serve session loop) use this.
func (p *OnlinePlanner) PlanEpoch(routing []*trace.RoutingMatrix) (boundary, observation []LayerDecision, err error) {
	if err := p.checkRouting(routing); err != nil {
		return nil, nil, err
	}
	p.resetEpoch()
	if !p.spec.Replans {
		return nil, nil, nil
	}
	p.observed = true
	err = p.fanout(func(l int) error {
		if p.pred {
			if berr := p.planBoundaryLayer(l); berr != nil {
				return berr
			}
		}
		return p.observeLayer(l, routing[l])
	})
	if err != nil {
		return nil, nil, err
	}
	if p.pred {
		boundary = p.decisions(stepBoundary)
	}
	return boundary, p.decisions(stepObserve), nil
}

// Summarize aggregates the epoch's planning outcome. Call it after
// Observe (it reflects whatever steps have run this epoch).
func (p *OnlinePlanner) Summarize() EpochSummary {
	var sum EpochSummary
	errSum, made, imbSum := 0.0, 0, 0.0
	for l := range p.state {
		s := &p.state[l]
		b, o := &s.step[stepBoundary], &s.step[stepObserve]
		bt := p.migTime(b.Moves)
		sum.Migrations += b.Moves + o.Moves
		sum.MigrationTime += bt + p.migTime(o.Moves)
		sum.BoundaryMigrationTime += bt
		imbSum += o.Imbalance
		sum.IncrementalSolves += s.incSolves
		sum.FullSolves += s.fullSolves
		if s.acted {
			sum.PredictedLayers++
		}
		if s.corrected {
			sum.CorrectedLayers++
		}
		if s.fcastMade {
			errSum += s.layerErr
			made++
		}
	}
	if made > 0 {
		sum.ForecastError = errSum / float64(made)
	}
	if p.observed {
		sum.MeanPredictedImbalance = imbSum / float64(p.layers)
	}
	// Fault recovery is summarized once and the counters drained: fault
	// events are applied before PlanBoundary (the boundary plan must see
	// the post-fault membership), so the boundary reset cannot clear them.
	// Their charges are added after every planning-step charge, a second
	// pass that keeps the float sums in their historical order.
	sum.FaultEvents = p.faultEvents
	p.faultEvents = 0
	for l := range p.state {
		s := &p.state[l]
		sum.Migrations += s.faultMoves
		sum.MigrationTime += p.migTime(s.faultMoves)
		sum.Restored += s.faultRestored
		sum.RestoreTime += float64(s.faultRestored) * p.restoreCost
		s.faultMoves, s.faultRestored = 0, 0
	}
	return sum
}

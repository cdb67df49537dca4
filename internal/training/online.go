package training

import (
	"fmt"
	"time"

	"laermoe/internal/costmodel"
	"laermoe/internal/executor"
	"laermoe/internal/faults"
	"laermoe/internal/forecast"
	"laermoe/internal/model"
	"laermoe/internal/par"
	"laermoe/internal/stats"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
	"laermoe/session"
)

// ReplanPolicy selects how the online engine reacts to epoch-scale load
// drift.
type ReplanPolicy string

const (
	// ReplanStatic never replans: the initial static-EP layout stays in
	// force for the whole run and tokens route to their fixed EP-group
	// owner (Fig. 6a) — the no-re-layout system every adaptive policy is
	// measured against, as in the paper's FSDP+EP comparison.
	ReplanStatic ReplanPolicy = "static"
	// ReplanScratch re-solves every layer's layout from scratch at every
	// epoch boundary, ignoring the layout currently in force.
	ReplanScratch ReplanPolicy = "scratch"
	// ReplanWarm warm-starts each boundary solve from the previous
	// layout: only experts whose load drifted past the threshold are
	// re-placed, and migration cost is charged against the improvement.
	ReplanWarm ReplanPolicy = "warm"
	// ReplanPredictive forecasts each epoch's loads from the history and
	// replans *before* the epoch's first iteration executes, removing the
	// observation-lag iteration every reactive policy pays (Fig. 7). When
	// the previous window's realized forecast error exceeds the confidence
	// threshold the policy falls back to warm-start semantics for that
	// layer; when a trusted forecast turns out wrong, a post-observation
	// correction replan bounds the damage to one iteration.
	ReplanPredictive ReplanPolicy = "predictive"
	// ReplanLLEP never re-lays out: every (source, expert) token block is
	// dispatched onto the least-loaded replica devices at routing time
	// (water-filling), the LLEP serving baseline ("Least-Loaded Expert
	// Parallelism"). The layout only supplies the replica sets.
	ReplanLLEP ReplanPolicy = "llep"
	// ReplanScoreBalance never re-lays out: each device's routing
	// distribution is blended toward uniform before apportionment and the
	// reshaped traffic routes on the fixed layout — the score-distribution
	// balancing baseline ("From Score Distributions to Balance").
	ReplanScoreBalance ReplanPolicy = "score-balance"
)

// ReplanPolicies lists every registered policy, in registration order
// (see registry.go — the one place policies register).
func ReplanPolicies() []ReplanPolicy {
	out := make([]ReplanPolicy, len(policyRegistry))
	for i := range policyRegistry {
		out[i] = policyRegistry[i].Name
	}
	return out
}

// DefaultConfidenceThreshold is the relative forecast error (previous
// window, realized vs predicted) above which the predictive policy falls
// back to warm-start semantics instead of acting on the forecast. The
// within-epoch noise floor of the synthetic trace sits near 0.06-0.08 and
// bursty hot-set replacements measure 0.6+, so 0.25 trusts any forecast
// with real skill while keeping the unforecastable regimes reactive.
const DefaultConfidenceThreshold = 0.25

// trustWindows is the number of consecutive sub-threshold error windows a
// layer's predictor must accumulate before its forecasts are acted on. A
// single lucky window under a bursty regime must not unlock boundary
// migrations: one quiet epoch is common when the redraw misses a layer's
// hot set, two in a row with the *forecast* also landing is not.
const trustWindows = 2

// OnlineConfig parameterizes one multi-epoch online re-layout simulation.
// The run always executes on the FSEP substrate with the LAER executor
// configuration; policies differ only in how per-layer layouts evolve, so
// the comparison isolates the re-layout decision itself.
type OnlineConfig struct {
	Policy ReplanPolicy
	Arch   *model.Config
	Topo   *topology.Topology

	// Epochs is the number of drift windows simulated (0 → 4);
	// IterationsPerEpoch the training iterations replayed per window
	// (0 → 6, minimum 2). The routing distribution drifts at every epoch
	// boundary; each epoch's first iteration runs on the carried-over
	// layouts and is the observation the reactive policies replan from, so
	// their plans lag the drift by exactly one iteration, as in the
	// paper's asynchronous planner (Fig. 7). The predictive policy instead
	// replans at the boundary from forecast loads, before that iteration
	// executes.
	Epochs             int
	IterationsPerEpoch int

	// Drift is the epoch-boundary drift process.
	Drift trace.DriftConfig

	// Workload selects the traffic the run plans for: WorkloadTraining
	// (default) replays training micro-batches with the step-time
	// objective; WorkloadInference drives request-level decode traffic —
	// Poisson arrivals modulated by Arrival ("diurnal" by default, or
	// "bursty"), per-request top-k routing — through the same planning
	// loop and additionally reports p50/p99 decode latency per epoch.
	Workload Workload
	Arrival  trace.ArrivalShape

	// MigrationThreshold is the relative per-expert load change past which
	// the warm policy re-places an expert: 0 selects the planner default
	// (0.2), negative re-places any expert whose load changed at all.
	MigrationThreshold float64

	// MigrationCostPerReplica is the wall time charged per replica that
	// lands on a device not previously hosting it (seconds). 0 models the
	// FSEP data plane, where any layout is restored by the same All-to-All
	// and re-layout is free (the paper's core claim); relocation-style
	// substrates pay RelocationCostPerReplica. The charge lands on the
	// critical path of the first iteration the new layout serves (the
	// epoch's first iteration for boundary replans, the second for
	// observation replans) and is amortized over the epoch inside the
	// solver's keep-versus-migrate score.
	MigrationCostPerReplica float64

	// Faults is the deterministic fault-injection schedule: membership and
	// degradation events applied at the epoch/iteration boundaries they
	// name, before the affected iteration executes. Events at iteration 0
	// land before the epoch's boundary plan, so the planner always plans
	// on the post-fault membership. Empty runs a fixed cluster.
	Faults faults.Schedule

	// RestoreCostPerReplica is the wall time charged per expert replica
	// re-read from the sharded optimizer checkpoint during fault recovery
	// (seconds). The adaptive policies pay it only for experts whose every
	// replica died; the static baseline pays it for every slot of the
	// layer it re-reads. 0 selects the modeled default
	// (CheckpointRestoreCostPerReplica), negative makes restores free.
	RestoreCostPerReplica float64

	// Predictor selects the per-expert load forecaster driving the
	// predictive policy (ignored otherwise): forecast.KindLast, KindEMA or
	// KindTrend. Empty selects KindTrend, the only one that anticipates
	// sustained drift instead of chasing it.
	Predictor forecast.Kind

	// ConfidenceThreshold is the relative forecast error (previous window,
	// realized vs predicted) above which the predictive policy falls back
	// to warm-start semantics; a layer's forecasts are acted on only after
	// two consecutive sub-threshold windows, so a single lucky window
	// under an unforecastable regime stays reactive. 0 selects
	// DefaultConfidenceThreshold; a negative value is rejected.
	ConfidenceThreshold float64

	AuxLossWeight float64
	TraceSkew     float64

	// GlobalBatchTokens and ForceTokensPerDevice mirror RunConfig.
	GlobalBatchTokens    int
	ForceTokensPerDevice int

	// Parallelism bounds the goroutines solving independent per-layer
	// layouts at an epoch boundary: 0 uses GOMAXPROCS, 1 forces serial.
	// The layouts — and the whole report — are identical at any setting.
	Parallelism int

	// Pool, when non-nil, fans the per-layer boundary solves across a
	// shared worker pool instead of the run's own Parallelism budget — the
	// laer-serve daemon points every session at one pool so concurrent
	// sessions cannot oversubscribe the machine. Decisions are identical
	// either way.
	Pool *par.Pool

	// DisableIncremental turns the per-layer drift trackers off, forcing
	// every warm solve down the full re-scoring path. Decisions are
	// byte-identical either way — the trackers are an amortization, not a
	// policy — so this exists for the equivalence tests and for A/B
	// measurement, not for production tuning.
	DisableIncremental bool

	Seed int64
}

func (c OnlineConfig) withDefaults() OnlineConfig {
	if c.Policy == "" {
		c.Policy = ReplanWarm
	}
	if c.Epochs == 0 {
		c.Epochs = 4
	}
	if c.IterationsPerEpoch == 0 {
		c.IterationsPerEpoch = 6
	}
	if c.Drift.Model == "" {
		c.Drift.Model = trace.DriftStabilizing
	}
	if c.Predictor == "" {
		c.Predictor = forecast.KindTrend
	}
	if c.Workload == "" {
		c.Workload = WorkloadTraining
	}
	if c.Workload == WorkloadInference && c.Arrival == "" {
		c.Arrival = trace.ArrivalDiurnal
	}
	return c
}

// SpecConfig translates a shared session specification into the engine
// config it runs with on topo: the names take their typed forms, the
// model resolves through the catalog (model.Default when empty), the
// fault schedule is parsed, and every zero field takes its engine
// default. It is the one place a session.Spec becomes an OnlineConfig;
// SimulateOnline and the serve daemon set only their own knobs on top.
func SpecConfig(spec session.Spec, topo *topology.Topology) (OnlineConfig, error) {
	name := spec.Model
	if name == "" {
		name = model.Default
	}
	arch, err := model.ByName(name)
	if err != nil {
		return OnlineConfig{}, err
	}
	sched, err := faults.Parse(spec.FaultSchedule)
	if err != nil {
		return OnlineConfig{}, err
	}
	return OnlineConfig{
		Policy:                  ReplanPolicy(spec.Policy),
		Workload:                Workload(spec.Workload),
		Arrival:                 trace.ArrivalShape(spec.Arrival),
		Arch:                    arch,
		Topo:                    topo,
		IterationsPerEpoch:      spec.IterationsPerEpoch,
		MigrationThreshold:      spec.MigrationThreshold,
		MigrationCostPerReplica: spec.MigrationCostPerReplica,
		Faults:                  sched,
		Predictor:               forecast.Kind(spec.Predictor),
		ConfidenceThreshold:     spec.ConfidenceThreshold,
		AuxLossWeight:           spec.AuxLossWeight,
		TraceSkew:               spec.DatasetSkew,
		ForceTokensPerDevice:    spec.ForceTokensPerDevice,
		GlobalBatchTokens:       spec.GlobalBatchTokens,
		Seed:                    spec.Seed,
	}.withDefaults(), nil
}

// OnlineEpoch reports one epoch of an online run.
type OnlineEpoch struct {
	Epoch int

	// StepTime is the summed simulated wall time of the epoch's
	// iterations, including the migration charges; IterationTime is
	// StepTime per iteration and Throughput the corresponding tokens/s.
	StepTime      float64
	IterationTime float64
	Throughput    float64

	// IterationTimes is the simulated wall time of each iteration in
	// order, migration charges included where they land. The gap between
	// the first iteration and the rest is the observation-lag penalty the
	// predictive policy exists to remove.
	IterationTimes []float64

	// Migrations is the number of expert replicas relocated entering this
	// epoch and MigrationTime the wall time charged for them.
	// BoundaryMigrationTime is the portion charged on the epoch's first
	// iteration by predictive boundary replans (the remainder lands on the
	// second iteration), so IterationTimes[0]-BoundaryMigrationTime is the
	// first iteration's pure execution time at any charge setting.
	Migrations            int
	MigrationTime         float64
	BoundaryMigrationTime float64

	// Imbalance is the mean relative max per-device token count across
	// the epoch's iterations and layers (1.0 = perfect balance).
	Imbalance float64

	// Requests, DecodeP50 and DecodeP99 describe the inference workload's
	// decode traffic this epoch: the requests served and the 50th/99th
	// percentile per-request decode latency in seconds (queueing plus
	// service on the dispatched experts, summed across layers). All zero
	// for training workloads.
	Requests  int     `json:"requests,omitempty"`
	DecodeP50 float64 `json:"decode_p50_s,omitempty"`
	DecodeP99 float64 `json:"decode_p99_s,omitempty"`

	// PredictedLayers counts the layers whose boundary replan acted on a
	// forecast this epoch, and CorrectedLayers those where the
	// post-observation refinement then changed the forecast-planned
	// layout again (both 0 for non-predictive policies).
	PredictedLayers int
	CorrectedLayers int

	// ForecastError is the mean realized-vs-predicted relative load error
	// across the layers that made a forecast this epoch (0 when none did).
	ForecastError float64

	// PlannerTime is the measured CPU time of this epoch's re-layout
	// solves (informational; wall-clock, not simulated).
	PlannerTime float64

	// BoundaryDecisions are the forecast-driven per-layer decisions taken
	// at the epoch boundary (predictive policy only; nil otherwise), and
	// ObservationDecisions the per-layer decisions of the post-observation
	// replan (nil for the static policy). They are exactly what a
	// laer-serve session returns for the same observations — the service
	// and the engine share the OnlinePlanner decision core.
	BoundaryDecisions    []LayerDecision
	ObservationDecisions []LayerDecision

	// FaultEvents lists the fault-injection events applied this epoch in
	// firing order, and FaultDecisions the per-layer recovery decisions
	// they forced (all empty on fault-free epochs). Restored counts the
	// expert replicas re-read from the checkpoint and RestoreTime the
	// simulated seconds charged for them.
	FaultEvents    []string        `json:"fault_events,omitempty"`
	FaultDecisions []LayerDecision `json:"fault_decisions,omitempty"`
	Restored       int             `json:"restored,omitempty"`
	RestoreTime    float64         `json:"restore_time_s,omitempty"`
}

// OnlineReport aggregates a multi-epoch online simulation.
type OnlineReport struct {
	Policy ReplanPolicy
	Drift  trace.DriftModel
	Model  string

	// Workload is the traffic the run planned for; Arrival the inference
	// workload's traffic shape (empty for training runs).
	Workload Workload
	Arrival  trace.ArrivalShape `json:"arrival,omitempty"`

	// Predictor is the forecaster the predictive policy ran with (empty
	// for other policies).
	Predictor forecast.Kind

	Epochs             []OnlineEpoch
	GlobalBatch        int // tokens per iteration across the cluster
	IterationsPerEpoch int

	// TotalStepTime is the cumulative simulated step time across every
	// epoch — the headline the policies compete on.
	TotalStepTime   float64
	TotalMigrations int

	// DecodeP50 and DecodeP99 are the run-level decode-latency
	// percentiles over every request of every epoch — the headline the
	// inference workload's policies compete on (0 for training runs).
	DecodeP50 float64 `json:"decode_p50_s,omitempty"`
	DecodeP99 float64 `json:"decode_p99_s,omitempty"`

	// Recoveries reports, per fault-bearing epoch, how the run absorbed
	// its fault events (empty for fault-free runs).
	Recoveries []FaultRecovery `json:"recoveries,omitempty"`

	// MeanThroughput is tokens/s over the whole run.
	MeanThroughput float64
	// MeanForecastError averages the per-epoch forecast errors over the
	// epochs that actually made a forecast (0 when none did).
	MeanForecastError float64
	// ObservationLag sums, over the epochs where a predictor can have
	// earned trust (index >= trustWindows+1: errors are first measurable
	// at epoch 1, and two sub-threshold windows must accumulate), the gap
	// between each epoch's first iteration — net of any boundary migration
	// charge — and the mean of its steady iterations (the third onward;
	// the second carries observation-replan charges). This is the Fig. 7
	// adaptation-lag penalty the predictive policy exists to remove,
	// measured identically for every policy so reports are directly
	// comparable; 0 when the run is too short to measure it.
	ObservationLag float64
}

// summarize fills the run-level figures derived from the finished epochs.
func (r *OnlineReport) summarize() {
	if r.TotalStepTime != 0 {
		tokens := float64(r.GlobalBatch) * float64(len(r.Epochs)*r.IterationsPerEpoch)
		r.MeanThroughput = tokens / r.TotalStepTime
	}
	var errSum float64
	forecasts := 0
	for _, e := range r.Epochs {
		if e.ForecastError > 0 {
			errSum += e.ForecastError
			forecasts++
		}
		if e.Epoch >= trustWindows+1 && len(e.IterationTimes) >= 3 {
			r.ObservationLag += e.IterationTimes[0] - e.BoundaryMigrationTime - stats.Mean(e.IterationTimes[2:])
		}
	}
	if forecasts > 0 {
		r.MeanForecastError = errSum / float64(forecasts)
	}
}

// RelocationCostPerReplica returns the wall time of moving one expert
// replica (parameters plus optimizer state) over the inter-node fabric —
// the charge traditional relocation schemes pay per migration.
func RelocationCostPerReplica(arch *model.Config, topo *topology.Topology) float64 {
	cm := costmodel.New(arch, topo, 8192)
	return cm.ExpertMigrationBytes() / topo.InterBW
}

// DefaultCheckpointBW is the modeled per-device read bandwidth from the
// sharded checkpoint store (bytes/s). Checkpoint traffic crosses the
// storage fabric, not the training interconnect, so a restore is several
// times slower than an inter-node replica move.
const DefaultCheckpointBW = 2e9

// CheckpointRestoreCostPerReplica returns the wall time of re-reading one
// expert replica (parameters plus optimizer state) from the sharded
// checkpoint — the charge fault recovery pays for state that no surviving
// device holds.
func CheckpointRestoreCostPerReplica(arch *model.Config, topo *topology.Topology) float64 {
	cm := costmodel.New(arch, topo, 8192)
	return cm.ExpertMigrationBytes() / DefaultCheckpointBW
}

// FoldLostRows re-homes the tokens of unavailable devices onto the
// survivors: dead device i's routing row is added into the alive row at
// position i mod (number alive) and zeroed. It models the data loader
// resharding its stream over the surviving data-parallel ranks — token
// counts (and so expert loads) are conserved, only their origin moves.
// A fully available topology is left untouched.
func FoldLostRows(r *trace.RoutingMatrix, topo *topology.Topology) {
	n := topo.N()
	if r.N != n || topo.NumAvailable() == n {
		return
	}
	alive := make([]int, 0, n)
	for d := 0; d < n; d++ {
		if topo.Available(d) {
			alive = append(alive, d)
		}
	}
	for d := 0; d < n; d++ {
		if topo.Available(d) {
			continue
		}
		dst := r.R[alive[d%len(alive)]]
		src := r.R[d]
		for j, v := range src {
			if v != 0 {
				dst[j] += v
				src[j] = 0
			}
		}
	}
}

// FaultRecovery measures how one fault-bearing epoch was absorbed,
// identically for every policy so the adaptive systems and the static
// baseline are directly comparable.
type FaultRecovery struct {
	// Epoch is the epoch the events fired in and Events their rendered
	// forms, in application order.
	Epoch  int      `json:"epoch"`
	Events []string `json:"events"`

	// Restored is the number of expert replicas re-read from the
	// checkpoint to recover, and RestoreTime the simulated seconds those
	// reads put on the critical path.
	Restored    int     `json:"restored"`
	RestoreTime float64 `json:"restore_time_s"`

	// AddedStepTime is the recovery's wall-clock toll: the fault epoch's
	// step time minus the preceding epoch's (0 for a fault in the first
	// epoch, which has no baseline).
	AddedStepTime float64 `json:"added_step_time_s"`

	// EpochsToRecover is how many epochs after the fault the run's mean
	// imbalance first returns to within 10% of the pre-fault epoch's
	// (0 = the fault epoch itself absorbed it; -1 = never recovered
	// within the run).
	EpochsToRecover int `json:"epochs_to_recover"`
}

// ObservationGenerator builds the routing generator behind the online
// engine's observation process: within an epoch the popularity process is
// held nearly stationary (persistence close to 1, hotspot jumps off), so
// drift concentrates at the epoch boundaries where ApplyDrift moves the
// distribution — what the boundary planner can and cannot track is exactly
// what a run measures. The caller supplies only the shape fields
// (dimensions, aux weight, skew, seed, parallelism); the process constants
// live here, in one place, so a laer-serve client replaying a drifting
// stream against a daemon (examples/serve) stays in lockstep with
// RunOnline by construction.
func ObservationGenerator(cfg trace.GeneratorConfig) (*trace.Generator, error) {
	cfg.Persistence = 0.999
	cfg.JumpProb = -1
	return trace.NewGenerator(cfg)
}

// InferenceObservationGenerator builds the request-level trace generator
// behind the inference workload, pinning the same within-epoch process
// constants as ObservationGenerator so the two workloads drift
// identically at epoch boundaries. TokensPerDevice in cfg is the mean
// decode requests per device per iteration.
func InferenceObservationGenerator(cfg trace.GeneratorConfig, arrival trace.ArrivalShape) (*trace.RequestGenerator, error) {
	cfg.Persistence = 0.999
	cfg.JumpProb = -1
	return trace.NewRequestGenerator(trace.RequestConfig{GeneratorConfig: cfg, Arrival: arrival})
}

// RunOnline simulates Epochs drift windows of IterationsPerEpoch training
// iterations each. The routing trace drifts at every window boundary. The
// reactive policies (warm, scratch) execute each window's first iteration
// on the layouts carried over from the previous window — it doubles as the
// planner's observation of the post-drift distribution — then replan, pay
// any migration charge on the second iteration's critical path, and replay
// the rest of the window on the new layouts. The predictive policy instead
// forecasts the post-drift loads from the history and, when the previous
// window's realized forecast error is below the confidence threshold,
// installs the new layouts *before* the first iteration (migration charged
// there), eliminating the observation lag; low-confidence layers fall back
// to the reactive path, and a trusted forecast that misses is corrected
// right after the observation. The report captures exactly what adaptation
// — reactive or anticipatory — buys (or costs) end to end.
func RunOnline(cfg OnlineConfig) (*OnlineReport, error) {
	cfg = cfg.withDefaults()
	// The run-level knobs are checked before NewOnlinePlanner builds the
	// decision core (memory fit plus one solver per layer): a trivially
	// invalid config must fail before that work, not after.
	if err := cfg.Drift.Validate(); err != nil {
		return nil, err
	}
	if cfg.Epochs < 1 {
		return nil, fmt.Errorf("training: need at least 1 epoch and 2 iterations per epoch (the first iteration is the planner's observation)")
	}
	elastic := len(cfg.Faults) > 0
	if cfg.Workload == WorkloadInference && elastic {
		return nil, fmt.Errorf("training: fault schedules are not supported for the inference workload")
	}
	if err := cfg.Faults.ValidateRun(cfg.Topo, cfg.Epochs, cfg.IterationsPerEpoch); err != nil {
		return nil, err
	}
	core, err := NewOnlinePlanner(cfg)
	if err != nil {
		return nil, err
	}
	setup := core.Setup()
	// All membership/degradation state lives on the planner's topology
	// clone; routing and folding must read the same instance the repairs
	// mutate.
	arch, topo := cfg.Arch, core.Topo()
	n, layers := topo.N(), arch.Layers

	shape := trace.GeneratorConfig{
		Devices: n, Experts: arch.Experts, Layers: layers,
		TokensPerDevice: setup.TokensPerDev, TopK: arch.TopK,
		AuxLossWeight: cfg.AuxLossWeight, Skew: cfg.TraceSkew, Seed: cfg.Seed,
		// Layer synthesis fans across the same worker budget as the
		// boundary solves; per-layer streams keep the trace identical at
		// any setting.
		Parallelism: cfg.Parallelism,
	}
	var (
		gen  *trace.Generator
		rgen *trace.RequestGenerator
		lat  *latencyMeter
	)
	if cfg.Workload == WorkloadInference {
		rgen, err = InferenceObservationGenerator(shape, cfg.Arrival)
		if err == nil {
			lat = newLatencyMeter(arch, topo, setup.ExecConfig.ContextLen)
		}
	} else {
		gen, err = ObservationGenerator(shape)
	}
	if err != nil {
		return nil, err
	}

	report := &OnlineReport{
		Policy: cfg.Policy, Drift: cfg.Drift.Model, Workload: cfg.Workload,
		Model: arch.Name, GlobalBatch: setup.GlobalBatch,
		IterationsPerEpoch: cfg.IterationsPerEpoch,
	}
	if rgen != nil {
		report.Arrival = rgen.Arrival()
	}
	if core.pred {
		report.Predictor = cfg.Predictor
	}
	plans := make([]executor.LayerPlan, layers)
	// The per-layer routing matrices are caller-owned and reused across
	// every iteration of the run: nothing downstream retains them (plans
	// hold dispatches, the core copies load values out), so steady-state
	// synthesis allocates nothing.
	var routing []*trace.RoutingMatrix

	// One env per layer: the layers route concurrently, and each env's
	// dispatch scratch (score-balance's reshaped matrix) persists across
	// iterations, reused, not reallocated. Only the latency meter reads
	// single assignments; an executed iteration needs traffic alone.
	denvs := make([]DispatchEnv, layers)
	for l := range denvs {
		denvs[l] = DispatchEnv{Topo: topo, Capacity: arch.ExpertCapacity, Assignments: lat != nil}
	}
	spec := core.spec

	for e := 0; e < cfg.Epochs; e++ {
		if e > 0 {
			var derr error
			if rgen != nil {
				derr = rgen.ApplyDrift(cfg.Drift)
			} else {
				derr = gen.ApplyDrift(cfg.Drift)
			}
			if derr != nil {
				return nil, derr
			}
		}
		ep := OnlineEpoch{Epoch: e}

		// Boundary fault events land before the boundary plan: the planner
		// must forecast and place onto the post-fault membership, and the
		// recovery charge queues for the first iteration's critical path.
		if elastic {
			if evs := cfg.Faults.At(e, 0); len(evs) > 0 {
				fdec, ferr := core.ApplyFaults(evs)
				if ferr != nil {
					return nil, ferr
				}
				for _, ev := range evs {
					ep.FaultEvents = append(ep.FaultEvents, ev.String())
				}
				ep.FaultDecisions = append(ep.FaultDecisions, fdec...)
			}
		}

		// Predictive boundary replanning: forecast this epoch's loads and,
		// where the previous window's error earns trust, install the new
		// layout before the first iteration executes. Layers without that
		// track record still forecast (so the error can be measured and
		// trust earned) but fall back to the reactive path below. For the
		// reactive policies PlanBoundary only resets the epoch state.
		start := time.Now()
		bdec, berr := core.PlanBoundary()
		if berr != nil {
			return nil, berr
		}
		if core.pred {
			ep.PlannerTime += time.Since(start).Seconds()
		}
		ep.BoundaryDecisions = bdec

		for it := 0; it < cfg.IterationsPerEpoch; it++ {
			// Mid-epoch fault events fire before the iteration they name
			// executes; their recovery charge lands on that iteration.
			if elastic && it > 0 {
				if evs := cfg.Faults.At(e, it); len(evs) > 0 {
					fdec, ferr := core.ApplyFaults(evs)
					if ferr != nil {
						return nil, ferr
					}
					for _, ev := range evs {
						ep.FaultEvents = append(ep.FaultEvents, ev.String())
					}
					ep.FaultDecisions = append(ep.FaultDecisions, fdec...)
				}
			}
			var batch *trace.RequestBatch
			if rgen != nil {
				routing, batch = rgen.StepInto(routing)
			} else {
				routing = gen.StepInto(routing)
			}
			if elastic {
				// Dead ranks emit no tokens: their stream reshards over the
				// survivors, conserving every expert's load.
				for l := range routing {
					FoldLostRows(routing[l], topo)
				}
			}
			layouts := core.Layouts()
			restored := core.StaticRestored()
			// The policy's registered dispatch routes each layer, on the
			// planner's worker budget: fixed EP owners for static (until a
			// restore forces replica lookup), layout-based Alg. 3 for the
			// replanning policies, least-loaded water-filling for LLEP,
			// reshaped-then-routed for score-balance. A layer's dispatch
			// reads only its own routing, layout and env, so the plans are
			// the same at any Parallelism.
			if derr := core.fanout(func(l int) error {
				env := &denvs[l]
				env.Routing, env.Layout, env.Restored = routing[l], layouts[l], restored
				d, err := spec.Dispatch(env)
				plans[l] = executor.LayerPlan{Layout: layouts[l], Dispatch: d}
				return err
			}); derr != nil {
				return nil, derr
			}
			for l := range plans {
				// Migration charges land on the critical path of the first
				// iteration the new layout serves: the epoch's first
				// iteration for boundary (predictive) replans, the second
				// for observation replans and corrections. Fault-recovery
				// charges land on the first iteration after their event.
				plans[l].ExtraRelayoutTime = core.MigrationCharge(it, l) + core.TakeFaultCharge(l)
			}
			if batch != nil {
				lat.record(batch, plans)
				ep.Requests += batch.Requests()
			}
			iter, rerr := executor.RunIteration(setup.ExecConfig, plans)
			if rerr != nil {
				return nil, rerr
			}
			ep.StepTime += iter.Time
			ep.IterationTimes = append(ep.IterationTimes, iter.Time)
			ep.Imbalance += stats.Mean(iter.PerLayerImbalance)

			// The epoch's first iteration doubles as its observation: the
			// reactive policies solve this epoch's layouts from its routing
			// (the paper's asynchronous planning, Fig. 7, at epoch scale)
			// with migration landing on iteration 1's critical path; the
			// predictive policy folds the realization into its forecasters
			// and falls back to the same reactive solve for layers that
			// could not (or should not have) trusted their forecast.
			if it == 0 && spec.Replans {
				start := time.Now()
				odec, oerr := core.Observe(routing)
				if oerr != nil {
					return nil, oerr
				}
				ep.PlannerTime += time.Since(start).Seconds()
				ep.ObservationDecisions = odec
			}
		}

		sum := core.Summarize()
		ep.Migrations = sum.Migrations
		ep.MigrationTime = sum.MigrationTime
		ep.BoundaryMigrationTime = sum.BoundaryMigrationTime
		ep.PredictedLayers = sum.PredictedLayers
		ep.CorrectedLayers = sum.CorrectedLayers
		ep.ForecastError = sum.ForecastError
		ep.Restored = sum.Restored
		ep.RestoreTime = sum.RestoreTime
		ep.IterationTime = ep.StepTime / float64(cfg.IterationsPerEpoch)
		ep.Throughput = float64(setup.GlobalBatch) / ep.IterationTime
		ep.Imbalance /= float64(cfg.IterationsPerEpoch)
		if lat != nil {
			ep.DecodeP50, ep.DecodeP99 = lat.epochPercentiles()
		}
		report.Epochs = append(report.Epochs, ep)
		report.TotalStepTime += ep.StepTime
		report.TotalMigrations += ep.Migrations
	}
	if lat != nil {
		report.DecodeP50, report.DecodeP99 = lat.runPercentiles()
	}
	if elastic {
		report.Recoveries = faultRecoveries(report.Epochs)
	}
	report.summarize()
	return report, nil
}

// faultRecoveries derives the per-fault-epoch recovery record from the
// finished epoch sequence.
func faultRecoveries(epochs []OnlineEpoch) []FaultRecovery {
	var recs []FaultRecovery
	for i, ep := range epochs {
		if len(ep.FaultEvents) == 0 {
			continue
		}
		rec := FaultRecovery{
			Epoch:           ep.Epoch,
			Events:          ep.FaultEvents,
			Restored:        ep.Restored,
			RestoreTime:     ep.RestoreTime,
			EpochsToRecover: -1,
		}
		if i > 0 {
			rec.AddedStepTime = ep.StepTime - epochs[i-1].StepTime
			// Recovered = the mean imbalance is back within 10% of the last
			// pre-fault epoch's.
			target := epochs[i-1].Imbalance * 1.10
			for k := i; k < len(epochs); k++ {
				if epochs[k].Imbalance <= target {
					rec.EpochsToRecover = k - i
					break
				}
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

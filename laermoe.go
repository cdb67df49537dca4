// Package laermoe is the public API of the LAER-MoE reproduction: a
// simulation library for load-adaptive expert re-layout in
// Mixture-of-Experts training (Liu et al., ASPLOS 2026).
//
// The package wraps the internal substrates — cluster/topology model,
// synthetic routing traces, the FSEP data plane, the load-balancing
// planner (Algorithms 1-4), the discrete-event executor and the baseline
// systems — behind plain types:
//
//	cluster, _ := laermoe.NewCluster(laermoe.ClusterSpec{Nodes: 4, GPUsPerNode: 8})
//	report, _ := laermoe.Simulate(laermoe.SimOptions{
//	    System:  laermoe.SystemLAER,
//	    Model:   "mixtral-8x7b-e8k2",
//	    Cluster: cluster,
//	})
//	fmt.Printf("%.0f tokens/s, a2a share %.1f%%\n", report.Throughput, 100*report.A2AShare)
//
// See the examples/ directory for runnable walkthroughs and cmd/ for the
// command line tools.
package laermoe

import (
	"fmt"
	"io"

	"laermoe/internal/costmodel"
	"laermoe/internal/experiments"
	"laermoe/internal/faults"
	"laermoe/internal/forecast"
	"laermoe/internal/model"
	"laermoe/internal/planner"
	"laermoe/internal/stats"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
	"laermoe/internal/training"
	"laermoe/session"
)

// System names accepted by Simulate.
const (
	SystemLAER      = "laer"
	SystemFSDPEP    = "fsdp+ep"
	SystemMegatron  = "megatron"
	SystemFlexMoE   = "flexmoe"
	SystemSmartMoE  = "smartmoe"
	SystemFasterMoE = "fastermoe"
	SystemBalanced  = "balanced"
)

// Systems returns every simulatable system name.
func Systems() []string { return names(training.Systems()) }

// names converts a registry's typed name list to plain strings.
func names[T ~string](typed []T) []string {
	out := make([]string, len(typed))
	for i, t := range typed {
		out[i] = string(t)
	}
	return out
}

// Models returns the catalog of evaluated model configurations.
func Models() []string { return model.Names() }

// ClusterSpec describes a simulated GPU cluster. Zero-valued bandwidth and
// compute fields default to the paper's A100 constants.
type ClusterSpec struct {
	Nodes       int
	GPUsPerNode int
	// IntraBW and InterBW are unidirectional point-to-point bandwidths in
	// bytes/s (0 → NVLink 300 GB/s and per-GPU InfiniBand 12.5 GB/s).
	IntraBW float64
	InterBW float64
	// EffectiveFLOPS is per-GPU sustained compute (0 → 312 TF x 45% MFU).
	EffectiveFLOPS float64
}

// Cluster is a configured topology handle.
type Cluster struct {
	topo *topology.Topology
}

// NewCluster builds a cluster from a spec.
func NewCluster(spec ClusterSpec) (*Cluster, error) {
	if spec.Nodes <= 0 || spec.GPUsPerNode <= 0 {
		return nil, fmt.Errorf("laermoe: cluster needs positive nodes and GPUs per node")
	}
	t := topology.New(spec.Nodes, spec.GPUsPerNode)
	if spec.IntraBW > 0 {
		t.IntraBW = spec.IntraBW
	}
	if spec.InterBW > 0 {
		t.InterBW = spec.InterBW
	}
	if spec.EffectiveFLOPS > 0 {
		t.FLOPS = spec.EffectiveFLOPS
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &Cluster{topo: t}, nil
}

// DefaultCluster returns the paper's evaluation cluster (4 nodes x 8
// A100-80GB).
func DefaultCluster() *Cluster { return &Cluster{topo: topology.Default()} }

// GPUs returns the total device count.
func (c *Cluster) GPUs() int { return c.topo.N() }

// SetStraggler marks one GPU as computing `factor` times slower than
// nominal (factor >= 1), for failure-injection studies.
func (c *Cluster) SetStraggler(gpu int, factor float64) error {
	return c.topo.SetSlowdown(gpu, factor)
}

// String describes the cluster.
func (c *Cluster) String() string { return c.topo.String() }

// SimOptions configures one simulated training run.
type SimOptions struct {
	// System is one of the System* constants.
	System string
	// Model is a catalog name from Models().
	Model string
	// Cluster is the simulated hardware (nil → DefaultCluster).
	Cluster *Cluster

	// AuxLossWeight is the auxiliary load-balancing loss weight shaping
	// the routing distribution (0 disables it).
	AuxLossWeight float64
	// DatasetSkew overrides the routing concentration (0 → default 1.0).
	DatasetSkew float64

	// Iterations is the run length (0 → 12) and Warmup the leading
	// iterations the averages exclude (0 → 3); Simulate rejects a warmup
	// that is negative or leaves no measured iteration.
	Iterations int
	Warmup     int
	Seed       int64

	// ForceTokensPerDevice bypasses the memory fitter (used by
	// MLP-module-only scaling studies; leave 0 normally).
	ForceTokensPerDevice int
}

// SimReport summarizes a simulated run.
type SimReport struct {
	System string
	Model  string

	IterationTime float64 // mean post-warmup seconds per iteration
	Throughput    float64 // tokens per second
	GlobalBatch   int     // tokens per iteration

	// Breakdown maps activity → mean seconds per iteration across ranks
	// ("a2a", "expert", "attention", "prefetch", "gradsync", "tpcomm",
	// "gate", "dispatcher", "other").
	Breakdown map[string]float64
	// A2AShare is the token All-to-All fraction of attributed time.
	A2AShare float64
	// PerLayerImbalance is the relative max token count per MoE layer
	// (1.0 = perfect balance).
	PerLayerImbalance []float64
	// MeanImbalance averages PerLayerImbalance.
	MeanImbalance float64
	// PlannerTime is the measured CPU seconds per iteration spent solving
	// re-layout strategies (LAER and FlexMoE).
	PlannerTime float64

	// TPDegree and TokensPerDevice are the memory fitter's choices.
	TPDegree        int
	TokensPerDevice int
}

// Simulate runs a multi-iteration training simulation.
func Simulate(opts SimOptions) (*SimReport, error) {
	if opts.Cluster == nil {
		opts.Cluster = DefaultCluster()
	}
	arch, err := model.ByName(opts.Model)
	if err != nil {
		return nil, err
	}
	if opts.Iterations == 0 {
		opts.Iterations = 12
	}
	warmupNote := ""
	if opts.Warmup == 0 {
		opts.Warmup = 3
		warmupNote = " (the default)"
	}
	// The averages cover the post-warmup iterations only: a negative
	// warmup would slice out of range, and an empty window would fold the
	// warmup iterations back into the averages (metrics.Run's fallback).
	if opts.Warmup < 0 || opts.Warmup >= opts.Iterations {
		return nil, fmt.Errorf("laermoe: need 0 <= Warmup < Iterations, have Warmup %d%s and Iterations %d",
			opts.Warmup, warmupNote, opts.Iterations)
	}
	cfg := training.RunConfig{
		System:               training.System(opts.System),
		Arch:                 arch,
		Topo:                 opts.Cluster.topo,
		AuxLossWeight:        opts.AuxLossWeight,
		TraceSkew:            opts.DatasetSkew,
		Iterations:           opts.Iterations,
		Warmup:               opts.Warmup,
		Seed:                 opts.Seed,
		ForceTokensPerDevice: opts.ForceTokensPerDevice,
	}
	run, setup, err := training.Run(cfg)
	if err != nil {
		return nil, err
	}
	bd := run.MeanBreakdown()
	imb := run.MeanPerLayerImbalance()
	plannerTime := 0.0
	if n := len(run.Iterations); n > 0 {
		plannerTime = run.Iterations[n-1].PlannerTime
	}
	return &SimReport{
		System:        string(cfg.System),
		Model:         arch.Name,
		IterationTime: run.MeanIterationTime(),
		Throughput:    run.Throughput(),
		GlobalBatch:   run.GlobalBatch,
		Breakdown: map[string]float64{
			"attention": bd.Attention, "gate": bd.Gate, "dispatcher": bd.Dispatcher,
			"expert": bd.Expert, "a2a": bd.A2A, "prefetch": bd.Prefetch,
			"gradsync": bd.GradSync, "tpcomm": bd.TPComm, "other": bd.Other,
		},
		A2AShare:          bd.A2AShare(),
		PerLayerImbalance: imb,
		MeanImbalance:     stats.Mean(imb),
		PlannerTime:       plannerTime,
		TPDegree:          setup.TPDegree,
		TokensPerDevice:   setup.TokensPerDev,
	}, nil
}

// Replan policy names accepted by SimulateOnline. An unknown name fails
// SimulateOnline fast with the valid set; Policies lists them.
const (
	PolicyStatic  = "static"
	PolicyScratch = "scratch"
	PolicyWarm    = "warm"
	// PolicyPredictive forecasts each epoch's expert loads and replans
	// before the epoch's first iteration executes, removing the
	// observation lag the reactive policies pay; it falls back to warm
	// behaviour whenever the forecast cannot be trusted.
	PolicyPredictive = "predictive"
	// PolicyLLEP never re-lays-out: it routes every token block to the
	// least-loaded replica of its expert at dispatch time (LLEP-style
	// serving baseline).
	PolicyLLEP = "llep"
	// PolicyScoreBalance never re-lays-out: it blends each device's
	// routing distribution toward uniform before apportioning tokens
	// (score-distribution balancing baseline).
	PolicyScoreBalance = "score-balance"
)

// Workload names accepted by OnlineOptions.Workload.
const (
	// WorkloadTraining is the classic multi-epoch training workload
	// (step-time objective, the default).
	WorkloadTraining = "training"
	// WorkloadInference drives request-level decode traffic through the
	// same planning loop and reports p50/p99 decode latency.
	WorkloadInference = "inference"
)

// Arrival shape names accepted by OnlineOptions.Arrival (inference
// workload only).
const (
	// ArrivalDiurnal modulates the request rate sinusoidally (day/night
	// cycle, the default).
	ArrivalDiurnal = "diurnal"
	// ArrivalBursty idles below the mean and spikes during flash-crowd
	// burst episodes.
	ArrivalBursty = "bursty"
)

// Policies returns every online replanning policy name.
func Policies() []string { return names(training.ReplanPolicies()) }

// Workloads returns every online workload name.
func Workloads() []string { return names(training.Workloads()) }

// Arrivals returns every inference arrival-shape name.
func Arrivals() []string { return names(trace.ArrivalShapes()) }

// Predictor names accepted by OnlineOptions.Predictor.
const (
	// PredictorLast forecasts that the next window repeats the current
	// one (persistence).
	PredictorLast = "last"
	// PredictorEMA forecasts the exponential moving average of the
	// history — noise-robust, deliberately lagging sustained drift.
	PredictorEMA = "ema"
	// PredictorTrend fits a per-expert least-squares line over a sliding
	// window and extrapolates one step ahead — the only predictor that
	// anticipates sustained drift instead of chasing it (the default).
	PredictorTrend = "trend"
)

// Predictors returns every load-predictor name.
func Predictors() []string { return names(forecast.Kinds()) }

// Drift model names accepted by SimulateOnline.
const (
	DriftNone        = "none"
	DriftStabilizing = "stabilizing"
	DriftBursty      = "bursty"
	DriftMigration   = "migration"
)

// DriftModels returns every drift model name.
func DriftModels() []string { return names(trace.DriftModels()) }

// OnlineSessionSpec is the shared online-session specification — policy,
// workload, predictor, thresholds, batch shape — embedded by
// OnlineOptions, by the laer-serve SessionSpec and by the laer-bench
// session builder, so the three surfaces can never drift apart. See
// package laermoe/session for the field documentation.
type OnlineSessionSpec = session.Spec

// OnlineOptions configures one multi-epoch online re-layout simulation:
// the routing distribution drifts at every epoch boundary and the chosen
// policy replans the expert layouts as the run progresses. The embedded
// Spec carries everything an online session shares with the laer-serve
// wire format (policy, workload, predictor, thresholds, batch shape);
// the fields below are simulation-only knobs the service has no use for.
type OnlineOptions struct {
	// Spec is the shared session specification. Its fields are promoted:
	// read opts.Policy as before, but composite literals now set
	// Spec: laermoe.OnlineSessionSpec{Policy: ...}.
	session.Spec

	// Cluster is the simulated hardware (nil → DefaultCluster).
	Cluster *Cluster

	// Epochs is the number of drift windows (0 → 4).
	Epochs int

	// Drift is one of the Drift* constants (default DriftStabilizing) and
	// DriftRate its strength in (0,1] (0 → 0.5). Training workload only.
	Drift     string
	DriftRate float64

	// RestoreCostPerReplica is the wall time charged per expert replica
	// re-read from the sharded optimizer checkpoint during fault recovery
	// (seconds). 0 selects the modeled default (CheckpointRestoreCost),
	// negative makes restores free.
	RestoreCostPerReplica float64

	// Parallelism bounds the goroutines solving per-layer layouts (and
	// synthesizing per-layer routing) at an epoch boundary (0 → all CPUs).
	// The report is identical at any setting.
	Parallelism int
}

// LayerDecision is one planning step's re-layout decision for one MoE
// layer: what happened ("keep", "warm-replan", "scratch-replan",
// "predictive-replan", and on faults "elastic-repair" or
// "checkpoint-restore"), the replica moves it cost, and the balance the
// planner predicts for the layout left in force. The laer-serve daemon
// returns the same decisions, as the same JSON, for the same observations.
type LayerDecision = training.LayerDecision

// OnlineEpochReport summarizes one epoch of an online run.
type OnlineEpochReport = training.OnlineEpoch

// FaultRecovery summarizes how one fault epoch was absorbed: what fired,
// what the recovery re-read from checkpoint, the step time it added over
// the previous epoch, and how many epochs the policy needed to return to
// within 10% of the pre-fault imbalance (-1 = never within the run).
type FaultRecovery = training.FaultRecovery

// OnlineReport summarizes a multi-epoch online run. Its name fields carry
// the engine's named string types; convert with string(rep.Policy) where
// a string is needed.
type OnlineReport = training.OnlineReport

// SimulateOnline runs a multi-epoch training simulation whose routing
// trace drifts between epochs, replanning expert layouts per the chosen
// policy and replaying every epoch against the evolving layout. Compare
// PolicyWarm against PolicyStatic and PolicyScratch on the same options to
// measure what load-adaptive re-layout buys end to end.
func SimulateOnline(opts OnlineOptions) (*OnlineReport, error) {
	if opts.Cluster == nil {
		opts.Cluster = DefaultCluster()
	}
	cfg, err := training.SpecConfig(opts.Spec, opts.Cluster.topo)
	if err != nil {
		return nil, err
	}
	cfg.Epochs = opts.Epochs
	cfg.Drift = trace.DriftConfig{Model: trace.DriftModel(opts.Drift), Rate: opts.DriftRate}
	cfg.RestoreCostPerReplica = opts.RestoreCostPerReplica
	cfg.Parallelism = opts.Parallelism
	return training.RunOnline(cfg)
}

// RelocationCost returns the wall time (seconds) of relocating one expert
// replica — parameters plus optimizer state over the inter-node fabric —
// for use as OnlineOptions.MigrationCostPerReplica when modelling
// relocation-style substrates instead of FSEP.
func RelocationCost(modelName string, cluster *Cluster) (float64, error) {
	if cluster == nil {
		cluster = DefaultCluster()
	}
	if modelName == "" {
		modelName = model.Default
	}
	arch, err := model.ByName(modelName)
	if err != nil {
		return 0, err
	}
	return training.RelocationCostPerReplica(arch, cluster.topo), nil
}

// CheckpointRestoreCost returns the wall time (seconds) of re-reading one
// expert replica from the sharded optimizer checkpoint — the charge fault
// recovery pays for expert state no surviving device holds, and the
// default behind OnlineOptions.RestoreCostPerReplica. Checkpoint traffic
// crosses the storage fabric, so a restore is several times slower than
// the inter-node replica move RelocationCost models.
func CheckpointRestoreCost(modelName string, cluster *Cluster) (float64, error) {
	if cluster == nil {
		cluster = DefaultCluster()
	}
	if modelName == "" {
		modelName = model.Default
	}
	arch, err := model.ByName(modelName)
	if err != nil {
		return 0, err
	}
	return training.CheckpointRestoreCostPerReplica(arch, cluster.topo), nil
}

// ValidateFaultSchedule parses an OnlineOptions.FaultSchedule string and
// checks every event against the cluster shape and the run horizon —
// node/device indices in range, membership transitions consistent (no
// failing a failed node, no killing the whole cluster), every firing point
// inside epochs x itersPerEpoch. Use it to fail fast before a run.
func ValidateFaultSchedule(schedule string, cluster *Cluster, epochs, itersPerEpoch int) error {
	if cluster == nil {
		cluster = DefaultCluster()
	}
	sched, err := faults.Parse(schedule)
	if err != nil {
		return err
	}
	return sched.ValidateRun(cluster.topo, epochs, itersPerEpoch)
}

// SynthesizeFaultSchedule draws a deterministic random fail/rejoin
// schedule over the run horizon — the same cluster, epochs and seed always
// yield the same schedule (node 0 is never failed, and a failed node
// rejoins two epochs later when the horizon allows). The result is in
// OnlineOptions.FaultSchedule syntax; it may be empty when the draw
// produces no failure.
func SynthesizeFaultSchedule(cluster *Cluster, epochs int, seed int64) (string, error) {
	if cluster == nil {
		cluster = DefaultCluster()
	}
	sched, err := faults.Synthesize(faults.SynthConfig{
		Epochs: epochs,
		Nodes:  cluster.topo.NumNodes,
		Seed:   seed,
	})
	if err != nil {
		return "", err
	}
	return sched.String(), nil
}

// PlanRequest is a one-shot planning problem: route the given token
// counts (Routing[device][expert]) on a cluster with the given per-device
// expert capacity.
type PlanRequest struct {
	Cluster  *Cluster
	Routing  [][]int
	Capacity int
	// Model provides the cost-model constants (default
	// "mixtral-8x7b-e8k2").
	Model string
	// Epsilon is the solver's candidate-set size (0 → 2, as evaluated).
	Epsilon int
	Seed    int64
}

// PlanResult is the solved re-layout strategy.
type PlanResult struct {
	// Replicas[j] is the replica count of expert j (Alg. 4).
	Replicas []int
	// Layout[j][d] is the number of replicas of expert j on device d
	// (Alg. 1).
	Layout [][]int
	// DeviceLoads[d] is the token count device d computes under lite
	// routing (Alg. 3).
	DeviceLoads []int
	// ImbalanceBefore/After are max/mean device loads under static EP
	// routing and under the solved strategy.
	ImbalanceBefore float64
	ImbalanceAfter  float64
	// Cost is the Eq. 2 objective of the solution.
	Cost float64
}

// PlanLayout solves one expert re-layout problem with the paper's
// Algorithms 1-4.
func PlanLayout(req PlanRequest) (*PlanResult, error) {
	if req.Cluster == nil {
		req.Cluster = DefaultCluster()
	}
	if len(req.Routing) == 0 || len(req.Routing[0]) == 0 {
		return nil, fmt.Errorf("laermoe: empty routing matrix")
	}
	if req.Capacity <= 0 {
		return nil, fmt.Errorf("laermoe: capacity must be positive")
	}
	if req.Model == "" {
		req.Model = model.Default
	}
	arch, err := model.ByName(req.Model)
	if err != nil {
		return nil, err
	}
	topo := req.Cluster.topo
	n, e := len(req.Routing), len(req.Routing[0])
	if n != topo.N() {
		return nil, fmt.Errorf("laermoe: routing matrix has %d devices, cluster has %d", n, topo.N())
	}
	r := trace.NewRoutingMatrix(n, e)
	for i := range req.Routing {
		if len(req.Routing[i]) != e {
			return nil, fmt.Errorf("laermoe: ragged routing matrix at row %d", i)
		}
		copy(r.R[i], req.Routing[i])
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	cm := costmodel.New(arch, topo, 8192)
	params := planner.CostParams{
		TokenBytes:          cm.TokenCommBytes(),
		ExpertFLOPsPerToken: cm.TokenExpertFLOPs(),
		FLOPS:               topo.FLOPS,
	}
	solver := planner.NewSolver(topo, req.Capacity, params,
		planner.SolverOptions{Epsilon: req.Epsilon, Seed: req.Seed})
	sol, err := solver.Solve(r)
	if err != nil {
		return nil, err
	}

	res := &PlanResult{
		Replicas:    sol.Layout.ReplicaVector(),
		Layout:      sol.Layout.Clone().A,
		DeviceLoads: planner.LiteTraffic(r, sol.Layout, topo).Loads(),
		Cost:        sol.Cost(),
	}
	res.ImbalanceAfter = stats.Imbalance(intsToFloats(res.DeviceLoads))
	if static, serr := planner.EPRouting(r, req.Capacity); serr == nil {
		res.ImbalanceBefore = stats.Imbalance(intsToFloats(static.Loads()))
	} else {
		res.ImbalanceBefore = res.ImbalanceAfter
	}
	return res, nil
}

// GenerateRouting produces one iteration of synthetic routing
// (Routing[device][expert]) with the library's calibrated dynamics.
func GenerateRouting(cluster *Cluster, experts, tokensPerDevice, topK int, auxWeight float64, seed int64) ([][]int, error) {
	if cluster == nil {
		cluster = DefaultCluster()
	}
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices:         cluster.GPUs(),
		Experts:         experts,
		Layers:          1,
		TokensPerDevice: tokensPerDevice,
		TopK:            topK,
		AuxLossWeight:   auxWeight,
		Seed:            seed,
	})
	if err != nil {
		return nil, err
	}
	return gen.Step()[0].R, nil
}

// LossCurve returns the convergence proxy's (steps, loss) samples for an
// auxiliary-loss weight (Fig. 2 / Fig. 9).
func LossCurve(steps, every int, auxWeight float64) ([]int, []float64) {
	m := training.DefaultConvergenceModel()
	return m.LossCurve(steps, every, auxWeight, 0)
}

// ExperimentOptions configures RunExperimentOpts.
type ExperimentOptions struct {
	// Quick trims sweep dimensions for fast smoke runs.
	Quick bool
	// Parallelism bounds the worker pool fanning independent sweep cells
	// across CPUs: 0 uses GOMAXPROCS, 1 forces serial execution, n > 1
	// uses n workers. The rendered artifact is byte-identical at any
	// setting; only wall-clock time changes.
	Parallelism int
	Seed        int64
}

// RunExperiment regenerates one of the paper's tables/figures by id (see
// ExperimentIDs) and writes the artifact to w, using every available CPU.
func RunExperiment(id string, quick bool, w io.Writer) error {
	return RunExperimentOpts(id, ExperimentOptions{Quick: quick}, w)
}

// RunExperimentOpts is RunExperiment with explicit execution options.
func RunExperimentOpts(id string, opts ExperimentOptions, w io.Writer) error {
	tables, err := experiments.Run(id, experiments.Options{
		Quick:       opts.Quick,
		Parallelism: opts.Parallelism,
		Seed:        opts.Seed,
	})
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Write(w)
	}
	return nil
}

// ExperimentIDs lists the reproducible paper artifacts.
func ExperimentIDs() []string { return experiments.IDs() }

func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}

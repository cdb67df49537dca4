// laer-sim simulates end-to-end MoE training of one or more systems on a
// configurable cluster and prints throughput, time breakdowns and balance
// metrics.
//
// Usage:
//
//	laer-sim -model mixtral-8x7b-e8k2 -systems laer,fsdp+ep,megatron \
//	         -nodes 4 -gpus 8 -iters 12 -aux 0
//
// Online (multi-epoch drifting-load) mode compares replanning policies:
//
//	laer-sim -epochs 5 -drift migration -policies predictive,warm,static \
//	         -predictor trend -charge-relocation
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"laermoe"
	"laermoe/internal/forecast"
	"laermoe/internal/prof"
	"laermoe/internal/trace"
	"laermoe/internal/training"
	"laermoe/internal/viz"
)

func main() {
	var (
		modelName = flag.String("model", "mixtral-8x7b-e8k2", "model configuration (see -list)")
		systems   = flag.String("systems", "laer,fsdp+ep,megatron,flexmoe", "comma-separated systems to simulate")
		nodes     = flag.Int("nodes", 4, "cluster nodes")
		gpus      = flag.Int("gpus", 8, "GPUs per node")
		iters     = flag.Int("iters", 12, "iterations to simulate")
		warmup    = flag.Int("warmup", 3, "warmup iterations excluded from averages, at least 1 (the simulator reads 0 as its default of 3)")
		aux       = flag.Float64("aux", 0, "auxiliary loss weight")
		skew      = flag.Float64("skew", 0, "routing skew override (0 = default)")
		seed      = flag.Int64("seed", 1, "random seed")
		straggler = flag.Int("straggler", -1, "GPU index to slow down 2x (-1 = none)")
		list      = flag.Bool("list", false, "list models, systems, policies, drifts and predictors, then exit")

		// The synthetic large-E scale models (synthetic-e2048 on 64x8,
		// synthetic-e4096 on 128x8) study routing and re-layout at fixed
		// per-device load; -force-tokens bypasses the memory fitter for
		// them, as the scale experiment does.
		forceTokens = flag.Int("force-tokens", 0, "fix tokens per device, bypassing the memory fitter (0 = fit)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		// Online (multi-epoch drifting-load) mode.
		epochs     = flag.Int("epochs", 0, "online mode: drift windows to simulate (0 = classic single-distribution mode)")
		epochIters = flag.Int("epoch-iters", 6, "online mode: iterations per epoch (the first one is the reactive policies' observation)")
		drift      = flag.String("drift", "stabilizing", "online mode: drift model (none, stabilizing, bursty, migration)")
		driftRate  = flag.Float64("drift-rate", 0, "online mode: drift strength in (0,1] (0 = default 0.5)")
		policies   = flag.String("policies", "predictive,warm,scratch,static", "online mode: comma-separated replan policies to compare")
		predictor  = flag.String("predictor", "trend", "online mode: load predictor for the predictive policy (last, ema, trend)")
		confidence = flag.Float64("confidence", 0, "online mode: forecast-error confidence threshold, not negative (0 = default 0.25)")
		threshold  = flag.Float64("threshold", 0, "online mode: warm-start per-expert load-change threshold (0 = default 0.2, negative = re-place on any change)")
		chargeMig  = flag.Bool("charge-relocation", false, "online mode: charge optimizer-state relocation per migrated replica (default: free FSEP re-layout)")

		// Elastic (fault-injected) online mode.
		elastic       = flag.Bool("elastic", false, "online mode: inject node loss/join faults and report recovery (see -fault-schedule)")
		faultSchedule = flag.String("fault-schedule", "", "elastic mode: fault events epoch[.iter]:kind:arg,... e.g. '2:fail:1,4:join:1' (empty = synthesize from -seed)")

		// Inference-serving online mode.
		workload = flag.String("workload", "training", "online mode: workload to plan for (training, inference)")
		arrival  = flag.String("arrival", "diurnal", "inference workload: request arrival shape (diurnal, bursty)")
	)
	flag.Parse()

	if *list {
		fmt.Println("models:    ", strings.Join(laermoe.Models(), ", "))
		fmt.Println("systems:   ", strings.Join(laermoe.Systems(), ", "))
		fmt.Println("policies:  ", strings.Join(laermoe.Policies(), ", "))
		fmt.Println("drifts:    ", strings.Join(laermoe.DriftModels(), ", "))
		fmt.Println("predictors:", strings.Join(laermoe.Predictors(), ", "))
		fmt.Println("workloads: ", strings.Join(laermoe.Workloads(), ", "))
		fmt.Println("arrivals:  ", strings.Join(laermoe.Arrivals(), ", "))
		return
	}

	// Every flag combination is rejected here, before any cluster setup or
	// simulation work: a typo'd policy must not surface as an error three
	// epochs into a run, and a warmup that swallows every iteration must
	// not silently fold warmup iterations back into the averages. Usage
	// errors exit 2, runtime failures exit 1 — consistently across the
	// laer-* tools.
	if err := validateFlags(simFlags{
		model: *modelName, systems: *systems,
		nodes: *nodes, gpus: *gpus, straggler: *straggler,
		iters: *iters, warmup: *warmup,
		epochs: *epochs, epochIters: *epochIters,
		forceTokens: *forceTokens,
		policies:    *policies, drift: *drift, predictor: *predictor,
		driftRate: *driftRate, confidence: *confidence,
		elastic: *elastic, faultSchedule: *faultSchedule,
		workload: *workload, arrival: *arrival,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "laer-sim:", err)
		fmt.Fprintln(os.Stderr, "run 'laer-sim -list' for the accepted names, or -h for usage")
		os.Exit(2)
	}

	cluster, err := laermoe.NewCluster(laermoe.ClusterSpec{Nodes: *nodes, GPUsPerNode: *gpus})
	if err != nil {
		fatal(err)
	}
	if *straggler >= 0 {
		if err := cluster.SetStraggler(*straggler, 2.0); err != nil {
			fatal(err)
		}
	}
	stopCPU, err := prof.Start(*cpuprofile)
	if err != nil {
		fatal(err)
	}
	defer stopCPU()
	// fatal exits without unwinding defers; flush the profile there too so
	// the one run the user most wants to inspect is not truncated.
	stopProfile = stopCPU
	fmt.Printf("cluster: %s\nmodel:   %s, aux loss weight %g\n\n", cluster, *modelName, *aux)

	if *epochs > 0 {
		schedule := ""
		if *elastic {
			schedule = *faultSchedule
			if schedule == "" {
				s, err := laermoe.SynthesizeFaultSchedule(cluster, *epochs, *seed)
				if err != nil {
					fatal(err)
				}
				schedule = s
			}
			if schedule == "" {
				fmt.Println("elastic: the synthesized schedule drew no fault; running a fixed cluster")
			} else {
				fmt.Printf("elastic: fault schedule %s\n", schedule)
			}
		}
		runOnline(cluster, *modelName, *policies, *workload, *arrival, *epochs, *epochIters,
			*drift, *driftRate, *predictor, *confidence, *threshold, *chargeMig, *aux, *skew, *forceTokens, schedule, *seed)
		stopCPU()
		if err := prof.WriteHeap(*memprofile); err != nil {
			fatal(err)
		}
		return
	}

	rows := [][]string{{"system", "iter (s)", "tokens/s", "a2a share", "imbalance", "TP", "mb tokens"}}
	var labels []string
	var tputs []float64
	for _, sys := range strings.Split(*systems, ",") {
		sys = strings.TrimSpace(sys)
		if sys == "" {
			continue
		}
		rep, err := laermoe.Simulate(laermoe.SimOptions{
			System: sys, Model: *modelName, Cluster: cluster,
			AuxLossWeight: *aux, DatasetSkew: *skew,
			Iterations: *iters, Warmup: *warmup, Seed: *seed,
			ForceTokensPerDevice: *forceTokens,
		})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", sys, err))
		}
		rows = append(rows, []string{
			sys,
			fmt.Sprintf("%.2f", rep.IterationTime),
			fmt.Sprintf("%.0f", rep.Throughput),
			fmt.Sprintf("%.1f%%", 100*rep.A2AShare),
			fmt.Sprintf("%.2f", rep.MeanImbalance),
			fmt.Sprintf("%d", rep.TPDegree),
			fmt.Sprintf("%d", rep.TokensPerDevice),
		})
		labels = append(labels, sys)
		tputs = append(tputs, rep.Throughput)
	}
	viz.Table(os.Stdout, rows)
	fmt.Println()
	viz.BarChart(os.Stdout, labels, tputs, 40, " tok/s")
	stopCPU()
	if err := prof.WriteHeap(*memprofile); err != nil {
		fatal(err)
	}
}

// simFlags is the flag set validateFlags audits.
type simFlags struct {
	model, systems             string
	nodes, gpus, straggler     int
	iters, warmup              int
	epochs, epochIters         int
	forceTokens                int
	policies, drift, predictor string
	driftRate, confidence      float64
	elastic                    bool
	faultSchedule              string
	workload, arrival          string
}

// validateFlags fails fast on flag combinations that the cluster setup,
// RunOnline or the metrics layer would otherwise only reject (or, worse,
// silently absorb) after setup work has already run.
func validateFlags(f simFlags) error {
	if f.nodes < 1 || f.gpus < 1 {
		return fmt.Errorf("-nodes %d and -gpus %d must both be at least 1", f.nodes, f.gpus)
	}
	if !names(laermoe.Models()).has(f.model) {
		return fmt.Errorf("unknown model %q (have %s)", f.model, names(laermoe.Models()))
	}
	if f.straggler >= f.nodes*f.gpus {
		return fmt.Errorf("-straggler %d out of range for %d GPUs", f.straggler, f.nodes*f.gpus)
	}
	if f.straggler < -1 {
		return fmt.Errorf("-straggler %d must be a GPU index or -1", f.straggler)
	}
	if f.epochs < 0 {
		return fmt.Errorf("-epochs %d must not be negative", f.epochs)
	}
	if f.forceTokens < 0 {
		// A negative value would silently read as "unset" downstream and
		// hand the choice back to the memory fitter.
		return fmt.Errorf("-force-tokens %d must not be negative", f.forceTokens)
	}
	if f.epochs == 0 {
		if f.elastic || f.faultSchedule != "" {
			return fmt.Errorf("-elastic and -fault-schedule need online mode (-epochs > 0)")
		}
		if f.workload != "" && f.workload != laermoe.WorkloadTraining {
			return fmt.Errorf("-workload %q needs online mode (-epochs > 0)", f.workload)
		}
		// Classic mode: the measured window must be non-empty, or the
		// metrics fallback silently averages over warmup iterations.
		if f.iters < 1 {
			return fmt.Errorf("-iters %d must be at least 1", f.iters)
		}
		if f.warmup < 0 {
			return fmt.Errorf("-warmup %d must not be negative", f.warmup)
		}
		if f.warmup == 0 {
			return fmt.Errorf("-warmup 0 would be read by the simulator as its default of 3; ask for at least 1")
		}
		if f.warmup >= f.iters {
			return fmt.Errorf("-warmup %d leaves no measured iterations out of -iters %d", f.warmup, f.iters)
		}
		any := false
		for _, sys := range strings.Split(f.systems, ",") {
			sys = strings.TrimSpace(sys)
			if sys == "" {
				continue
			}
			if !names(laermoe.Systems()).has(sys) {
				return fmt.Errorf("unknown system %q (have %s)", sys, names(laermoe.Systems()))
			}
			any = true
		}
		if !any {
			return fmt.Errorf("-systems %q selects no system", f.systems)
		}
		return nil
	}
	if f.epochIters < 2 {
		return fmt.Errorf("-epoch-iters %d must be at least 2 (the first iteration is the observation)", f.epochIters)
	}
	if f.driftRate < 0 || f.driftRate > 1 {
		return fmt.Errorf("-drift-rate %g out of [0,1] (0 selects the default)", f.driftRate)
	}
	if f.confidence < 0 {
		return fmt.Errorf("-confidence %g must not be negative (0 selects the default)", f.confidence)
	}
	// Name flags resolve through the one policy/workload/predictor/drift
	// registry, so a policy registered there is accepted here with no
	// hand-kept list to update (and the registry's error carries the
	// accepted names).
	if err := training.ResolveDrift(trace.DriftModel(f.drift)); err != nil {
		return fmt.Errorf("-drift: %v", err)
	}
	if err := training.ResolvePredictor(forecast.Kind(f.predictor)); err != nil {
		return fmt.Errorf("-predictor: %v", err)
	}
	if err := training.ResolveWorkload(training.Workload(f.workload)); err != nil {
		return fmt.Errorf("-workload: %v", err)
	}
	if !names(laermoe.Arrivals()).has(f.arrival) {
		return fmt.Errorf("-arrival: unknown arrival shape %q (have %s)", f.arrival, names(laermoe.Arrivals()))
	}
	any := false
	for _, pol := range strings.Split(f.policies, ",") {
		pol = strings.TrimSpace(pol)
		if pol == "" {
			continue
		}
		if _, err := training.ResolvePolicy(training.ReplanPolicy(pol)); err != nil {
			return fmt.Errorf("-policies: %v", err)
		}
		any = true
	}
	if !any {
		return fmt.Errorf("-policies %q selects no policy", f.policies)
	}
	if f.workload == laermoe.WorkloadInference && (f.elastic || f.faultSchedule != "") {
		return fmt.Errorf("-workload=inference does not support fault injection (drop -elastic/-fault-schedule)")
	}
	if f.faultSchedule != "" && !f.elastic {
		return fmt.Errorf("-fault-schedule needs -elastic")
	}
	if f.elastic && f.faultSchedule != "" {
		// An explicit schedule is checked against the cluster shape and the
		// run horizon here; a synthesized one is valid by construction.
		cluster, err := laermoe.NewCluster(laermoe.ClusterSpec{Nodes: f.nodes, GPUsPerNode: f.gpus})
		if err != nil {
			return err
		}
		if err := laermoe.ValidateFaultSchedule(f.faultSchedule, cluster, f.epochs, f.epochIters); err != nil {
			return fmt.Errorf("-fault-schedule: %v", err)
		}
	}
	return nil
}

type names []string

func (n names) has(s string) bool {
	for _, v := range n {
		if v == s {
			return true
		}
	}
	return false
}

func (n names) String() string { return strings.Join(n, ", ") }

// runOnline simulates every requested replanning policy over the same
// drifting multi-epoch trace (and, in elastic mode, the same fault
// schedule) and prints per-epoch detail, recovery records and a summary.
// The inference workload swaps the throughput columns for request counts
// and p50/p99 decode latency.
func runOnline(cluster *laermoe.Cluster, modelName, policies, workload, arrival string, epochs, epochIters int,
	drift string, driftRate float64, predictor string, confidence, threshold float64,
	chargeMig bool, aux, skew float64, forceTokens int, faultSchedule string, seed int64) {
	migCost := 0.0
	if chargeMig {
		c, err := laermoe.RelocationCost(modelName, cluster)
		if err != nil {
			fatal(err)
		}
		migCost = c
		fmt.Printf("relocation charge: %.3f s per migrated replica\n", migCost)
	}
	if faultSchedule != "" {
		c, err := laermoe.CheckpointRestoreCost(modelName, cluster)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("checkpoint restore charge: %.3f s per re-read replica\n", c)
	}
	inference := workload == laermoe.WorkloadInference
	if inference {
		fmt.Printf("online:  %d epochs x %d iterations, inference workload, arrival %s, predictor %s\n\n", epochs, epochIters, arrival, predictor)
	} else {
		fmt.Printf("online:  %d epochs x %d iterations, drift %s, predictor %s\n\n", epochs, epochIters, drift, predictor)
	}

	summary := [][]string{{"policy", "total step (s)", "tokens/s", "migrations", "mig time (s)", "forecast err"}}
	if inference {
		summary = [][]string{{"policy", "total step (s)", "p50 (s)", "p99 (s)", "migrations", "mig time (s)", "forecast err"}}
	}
	var labels []string
	var tputs []float64
	for _, pol := range strings.Split(policies, ",") {
		pol = strings.TrimSpace(pol)
		if pol == "" {
			continue
		}
		rep, err := laermoe.SimulateOnline(laermoe.OnlineOptions{
			Spec: laermoe.OnlineSessionSpec{
				Policy: pol, Model: modelName,
				Workload: workload, Arrival: arrival,
				IterationsPerEpoch: epochIters,
				Predictor:          predictor, ConfidenceThreshold: confidence,
				MigrationThreshold: threshold, MigrationCostPerReplica: migCost,
				FaultSchedule: faultSchedule,
				AuxLossWeight: aux, DatasetSkew: skew,
				ForceTokensPerDevice: forceTokens, Seed: seed,
			},
			Cluster: cluster,
			Epochs:  epochs,
			Drift:   drift, DriftRate: driftRate,
		})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", pol, err))
		}
		rows := [][]string{{"epoch", "iter (s)", "first iter (s)", "tokens/s", "imbalance", "migrations", "mig time (s)", "predicted", "fc err"}}
		if inference {
			rows = [][]string{{"epoch", "iter (s)", "requests", "p50 (s)", "p99 (s)", "imbalance", "migrations", "mig time (s)", "fc err"}}
		}
		var migTime float64
		for _, e := range rep.Epochs {
			if inference {
				rows = append(rows, []string{
					fmt.Sprintf("%d", e.Epoch),
					fmt.Sprintf("%.2f", e.IterationTime),
					fmt.Sprintf("%d", e.Requests),
					fmt.Sprintf("%.3f", e.DecodeP50),
					fmt.Sprintf("%.3f", e.DecodeP99),
					fmt.Sprintf("%.2f", e.Imbalance),
					fmt.Sprintf("%d", e.Migrations),
					fmt.Sprintf("%.1f", e.MigrationTime),
					fmt.Sprintf("%.3f", e.ForecastError),
				})
			} else {
				rows = append(rows, []string{
					fmt.Sprintf("%d", e.Epoch),
					fmt.Sprintf("%.2f", e.IterationTime),
					fmt.Sprintf("%.2f", e.IterationTimes[0]),
					fmt.Sprintf("%.0f", e.Throughput),
					fmt.Sprintf("%.2f", e.Imbalance),
					fmt.Sprintf("%d", e.Migrations),
					fmt.Sprintf("%.1f", e.MigrationTime),
					fmt.Sprintf("%d", e.PredictedLayers),
					fmt.Sprintf("%.3f", e.ForecastError),
				})
			}
			migTime += e.MigrationTime
		}
		label := pol
		if pol == laermoe.PolicyPredictive {
			label = pol + "/" + string(rep.Predictor)
		}
		fmt.Printf("policy %s:\n", label)
		viz.Table(os.Stdout, rows)
		fmt.Println()
		if len(rep.Recoveries) > 0 {
			rec := [][]string{{"fault epoch", "events", "restored", "restore (s)", "added step (s)", "epochs to recover"}}
			for _, r := range rep.Recoveries {
				toRecover := fmt.Sprintf("%d", r.EpochsToRecover)
				if r.EpochsToRecover < 0 {
					toRecover = "never"
				}
				rec = append(rec, []string{
					fmt.Sprintf("%d", r.Epoch),
					strings.Join(r.Events, " "),
					fmt.Sprintf("%d", r.Restored),
					fmt.Sprintf("%.2f", r.RestoreTime),
					fmt.Sprintf("%.2f", r.AddedStepTime),
					toRecover,
				})
			}
			fmt.Printf("recovery (%s):\n", label)
			viz.Table(os.Stdout, rec)
			fmt.Println()
		}
		if inference {
			summary = append(summary, []string{
				label,
				fmt.Sprintf("%.1f", rep.TotalStepTime),
				fmt.Sprintf("%.3f", rep.DecodeP50),
				fmt.Sprintf("%.3f", rep.DecodeP99),
				fmt.Sprintf("%d", rep.TotalMigrations),
				fmt.Sprintf("%.1f", migTime),
				fmt.Sprintf("%.3f", rep.MeanForecastError),
			})
			labels = append(labels, label)
			tputs = append(tputs, rep.DecodeP99)
		} else {
			summary = append(summary, []string{
				label,
				fmt.Sprintf("%.1f", rep.TotalStepTime),
				fmt.Sprintf("%.0f", rep.MeanThroughput),
				fmt.Sprintf("%d", rep.TotalMigrations),
				fmt.Sprintf("%.1f", migTime),
				fmt.Sprintf("%.3f", rep.MeanForecastError),
			})
			labels = append(labels, label)
			tputs = append(tputs, rep.MeanThroughput)
		}
	}
	viz.Table(os.Stdout, summary)
	fmt.Println()
	if inference {
		viz.BarChart(os.Stdout, labels, tputs, 40, " s p99")
	} else {
		viz.BarChart(os.Stdout, labels, tputs, 40, " tok/s")
	}
}

// stopProfile flushes an in-flight CPU profile before a fatal exit; a
// no-op until profiling starts.
var stopProfile = func() {}

func fatal(err error) {
	stopProfile()
	fmt.Fprintln(os.Stderr, "laer-sim:", err)
	os.Exit(1)
}

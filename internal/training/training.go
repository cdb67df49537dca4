// Package training drives multi-iteration simulations: it fits memory
// plans, instantiates the per-system scheduler and trace generator, runs
// the executor for every iteration and aggregates the results. It also
// hosts the convergence proxy used by the Fig. 2 / Fig. 9 studies.
package training

import (
	"fmt"

	"laermoe/internal/baselines"
	"laermoe/internal/costmodel"
	"laermoe/internal/executor"
	"laermoe/internal/memory"
	"laermoe/internal/metrics"
	"laermoe/internal/model"
	"laermoe/internal/planner"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// System identifies one of the evaluated training systems.
type System string

const (
	SystemLAER      System = "laer"      // FSEP + LAER planner
	SystemFSDPEP    System = "fsdp+ep"   // FSDP+EP baseline, static layout
	SystemMegatron  System = "megatron"  // HEP: TP attention, resident experts
	SystemFlexMoE   System = "flexmoe"   // FSEP + FlexMoE scheduler
	SystemSmartMoE  System = "smartmoe"  // FSDP+EP + SmartMoE relocation
	SystemFasterMoE System = "fastermoe" // FSDP+EP + FasterMoE shadowing
	SystemBalanced  System = "balanced"  // FSDP+EP with oracle-balanced routing
)

// Systems lists every runnable system.
func Systems() []System {
	return []System{SystemLAER, SystemFSDPEP, SystemMegatron, SystemFlexMoE,
		SystemSmartMoE, SystemFasterMoE, SystemBalanced}
}

// RunConfig parameterizes one simulated training run.
type RunConfig struct {
	System System
	Arch   *model.Config
	Topo   *topology.Topology

	// AuxLossWeight shapes the routing distribution (0 disables the
	// auxiliary loss; the paper evaluates 0 and 1e-4, and 1e-2 for the
	// convergence study).
	AuxLossWeight float64

	Iterations int
	Warmup     int

	// GlobalBatchTokens is the tokens processed per iteration across the
	// cluster. 0 selects the default of 2^21 (≈2M tokens), which yields
	// paper-scale iteration times on the 32-GPU default cluster.
	GlobalBatchTokens int

	ContextLen int // 0 → 8192
	Ckpt       bool

	// TraceSkew overrides the routing generator's skew (0 → generator
	// default). The experiment harness uses it to model datasets with
	// different routing concentration (e.g. WikiText vs C4).
	TraceSkew float64

	// ForceTokensPerDevice bypasses the memory fitter and fixes the
	// micro-batch size (TP=1). Used by the Appendix-D style scalability
	// simulations, which model the MLP module rather than a deployable
	// memory configuration.
	ForceTokensPerDevice int

	Comm       executor.CommOpts // zero value → all optimizations on
	CommSet    bool              // set true to honor a zero-valued Comm
	SolverOpts planner.SolverOptions

	// HistoryAlpha is the LAER planner's routing-history EMA factor
	// (0 → 0.6).
	HistoryAlpha float64

	Seed int64
}

func (c RunConfig) withDefaults() RunConfig {
	if c.GlobalBatchTokens == 0 {
		c.GlobalBatchTokens = 1 << 21
	}
	if c.ContextLen == 0 {
		c.ContextLen = 8192
	}
	if !c.CommSet {
		c.Comm = executor.AllCommOpts()
	}
	if c.HistoryAlpha == 0 {
		c.HistoryAlpha = 0.6
	}
	if c.Iterations == 0 {
		c.Iterations = 15
	}
	if c.SolverOpts.Epsilon == 0 {
		c.SolverOpts = planner.DefaultSolverOptions()
	}
	return c
}

// Setup is the resolved execution configuration of a run (memory plan,
// batch shape, cost model), exposed for inspection and tests.
type Setup struct {
	ExecConfig   executor.Config
	MicroBatches int
	TokensPerDev int // MoE-source tokens per device per micro-batch
	TPDegree     int
	GlobalBatch  int
	// Params is the Eq. 2 cost model the run's planner scores layouts
	// with, derived from the same context length and checkpointing flag
	// the executor simulates.
	Params planner.CostParams
}

// paradigmOf maps systems to parameter paradigms.
func paradigmOf(s System) executor.Paradigm {
	switch s {
	case SystemLAER, SystemFlexMoE:
		return executor.ParadigmFSEP
	case SystemMegatron:
		return executor.ParadigmResident
	default:
		return executor.ParadigmFSDPEP
	}
}

// Prepare resolves the memory plan, batch shape and cost model for a run
// configuration.
func Prepare(cfg RunConfig) (*Setup, error) {
	cfg = cfg.withDefaults()
	if cfg.Arch == nil || cfg.Topo == nil {
		return nil, fmt.Errorf("training: nil architecture or topology")
	}
	n := cfg.Topo.N()

	var tp, tokensPerDev int
	switch {
	case cfg.ForceTokensPerDevice > 0:
		tp = 1
		tokensPerDev = cfg.ForceTokensPerDevice
	case cfg.System == SystemMegatron:
		plan, err := memory.FitMegatron(cfg.Arch, cfg.Topo)
		if err != nil {
			return nil, err
		}
		tp = plan.TPDegree
		tokensPerDev = plan.TokensPerDevice / tp // MoE-source tokens per device
	default:
		plan, err := memory.FitFullySharded(cfg.Arch, cfg.Topo)
		if err != nil {
			return nil, err
		}
		tp = 1
		tokensPerDev = plan.TokensPerDevice
	}
	microBatches := cfg.GlobalBatchTokens / (n * tokensPerDev)
	if microBatches < 1 {
		microBatches = 1
	}

	cm := costmodel.New(cfg.Arch, cfg.Topo, cfg.ContextLen)
	params := planner.CostParams{
		TokenBytes:          cm.TokenCommBytes(),
		ExpertFLOPsPerToken: cm.TokenExpertFLOPs(),
		FLOPS:               cfg.Topo.FLOPS,
		Ckpt:                cfg.Ckpt,
	}

	exec := executor.Config{
		Arch:            cfg.Arch,
		Topo:            cfg.Topo,
		Paradigm:        paradigmOf(cfg.System),
		TPDegree:        tp,
		TokensPerDevice: tokensPerDev,
		MicroBatches:    microBatches,
		ContextLen:      cfg.ContextLen,
		Ckpt:            cfg.Ckpt,
		Comm:            cfg.Comm,
	}
	return &Setup{
		ExecConfig:   exec,
		MicroBatches: microBatches,
		TokensPerDev: tokensPerDev,
		TPDegree:     tp,
		GlobalBatch:  n * tokensPerDev * microBatches,
		Params:       params,
	}, nil
}

// newScheduler builds the per-system scheduler of a classic Run. Only Run
// needs one: the online engine plans through its own per-layer state, and
// a LAER scheduler alone holds a static-EP layout of E x N ints.
func newScheduler(cfg RunConfig, setup *Setup) (baselines.Scheduler, error) {
	arch, topo := cfg.Arch, cfg.Topo
	migration := costmodel.New(arch, topo, cfg.ContextLen).ExpertMigrationBytes() / topo.InterBW
	switch cfg.System {
	case SystemLAER:
		opts := cfg.SolverOpts
		opts.Seed = cfg.Seed + 1
		p, err := planner.New(topo, arch.Layers, arch.Experts, arch.ExpertCapacity,
			setup.Params, opts, cfg.HistoryAlpha)
		if err != nil {
			return nil, err
		}
		return baselines.NewLAER(p), nil
	case SystemFSDPEP, SystemMegatron:
		return baselines.NewStaticEP(arch.Experts, topo.N(), arch.ExpertCapacity)
	case SystemFlexMoE:
		return baselines.NewFlexMoE(topo, arch.Layers, arch.Experts, arch.ExpertCapacity, setup.Params, migration)
	case SystemSmartMoE:
		return baselines.NewSmartMoE(topo, arch.Layers, arch.Experts, arch.ExpertCapacity, 25, migration)
	case SystemFasterMoE:
		return baselines.NewFasterMoE(topo, arch, 1.5)
	case SystemBalanced:
		return &baselines.BalancedOracle{Topo: topo, C: arch.ExpertCapacity}, nil
	}
	return nil, fmt.Errorf("training: unknown system %q", cfg.System)
}

// Run simulates the configured number of iterations and returns the
// aggregated report with the Setup it ran under, so a caller that reports
// the batch shape does not resolve the memory plan a second time.
func Run(cfg RunConfig) (*metrics.Run, *Setup, error) {
	cfg = cfg.withDefaults()
	setup, err := Prepare(cfg)
	if err != nil {
		return nil, nil, err
	}
	sched, err := newScheduler(cfg, setup)
	if err != nil {
		return nil, nil, err
	}

	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices:         cfg.Topo.N(),
		Experts:         cfg.Arch.Experts,
		Layers:          cfg.Arch.Layers,
		TokensPerDevice: setup.TokensPerDev,
		TopK:            cfg.Arch.TopK,
		AuxLossWeight:   cfg.AuxLossWeight,
		Skew:            cfg.TraceSkew,
		Seed:            cfg.Seed,
		// Serial: classic runs execute as sweep cells that already fan
		// across every CPU (the experiment harness), so a per-cell
		// layer fan-out would only oversubscribe the machine. The
		// online engine threads its own Parallelism knob instead.
		Parallelism: 1,
	})
	if err != nil {
		return nil, nil, err
	}

	run := &metrics.Run{
		System:      string(cfg.System),
		Model:       cfg.Arch.Name,
		GlobalBatch: setup.GlobalBatch,
		Warmup:      cfg.Warmup,
	}
	for it := 0; it < cfg.Iterations; it++ {
		routing := gen.Step()
		plans, perr := sched.Plan(routing)
		if perr != nil {
			return nil, nil, perr
		}
		iter, rerr := executor.RunIteration(setup.ExecConfig, plans)
		if rerr != nil {
			return nil, nil, rerr
		}
		iter.PlannerTime = sched.PlannerTime()
		run.Iterations = append(run.Iterations, *iter)
	}
	return run, setup, nil
}

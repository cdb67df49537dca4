package experiments

import (
	"laermoe/internal/executor"
	"laermoe/internal/metrics"
	"laermoe/internal/model"
	"laermoe/internal/planner"
	"laermoe/internal/training"
)

// Fig12Result reproduces Fig. 12: the ablation of the layout solver's
// candidate schemes and of the communication-scheduling optimizations.
type Fig12Result struct {
	Table *Table
	// Throughput by variant name.
	Throughput map[string]float64
}

// Fig12Variants are the ablation arms, matching the artifact's
// ablation.sh: full LAER, single-scheme solvers, no communication
// optimizations, and the FSDP+EP floor.
var Fig12Variants = []string{"laer", "no_even", "no_pq", "no_comm_opt", "fsdp+ep"}

// Fig12 runs the ablation study on Mixtral-8x7B e8k2.
func Fig12(opts Options) (*Fig12Result, error) {
	opts = opts.withDefaults()
	res := &Fig12Result{Throughput: map[string]float64{}}
	t := &Table{
		ID:     "fig12",
		Title:  "Ablation study (Mixtral-8x7B e8k2, Wikitext)",
		Header: []string{"variant", "iter (s)", "throughput (tok/s)", "vs full LAER"},
	}
	runs := make([]*metrics.Run, len(Fig12Variants))
	err := forEach(opts.Workers(), len(Fig12Variants), func(i int) error {
		cfg := training.RunConfig{
			System:     training.SystemLAER,
			Arch:       model.Mixtral8x7B,
			Topo:       opts.Topo,
			Iterations: opts.Iterations,
			Warmup:     opts.Warmup,
			TraceSkew:  1.15,
			Seed:       opts.Seed + 201,
		}
		switch Fig12Variants[i] {
		case "laer":
		case "no_even":
			cfg.SolverOpts = planner.SolverOptions{Epsilon: 1, DisableEven: true}
		case "no_pq":
			cfg.SolverOpts = planner.SolverOptions{Epsilon: 1, DisablePQ: true}
		case "no_comm_opt":
			cfg.Comm = executor.CommOpts{}
			cfg.CommSet = true
		case "fsdp+ep":
			cfg.System = training.SystemFSDPEP
		}
		run, _, err := training.Run(cfg)
		if err != nil {
			return err
		}
		runs[i] = run
		return nil
	})
	if err != nil {
		return nil, err
	}
	var full float64
	for i, variant := range Fig12Variants {
		run := runs[i]
		tput := run.Throughput()
		res.Throughput[variant] = tput
		if variant == "laer" {
			full = tput
		}
		rel := "1.00x"
		if variant != "laer" && full > 0 {
			rel = f2(tput/full) + "x"
		}
		t.AddRow(variant, f1(run.MeanIterationTime()), f0(tput), rel)
	}
	t.Notes = append(t.Notes,
		"single replica schemes cannot handle all routing patterns; dropping the Fig. 5 scheduling exposes prefetch and gradient traffic")
	res.Table = t
	return res, nil
}

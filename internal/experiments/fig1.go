package experiments

import (
	"laermoe/internal/metrics"
	"laermoe/internal/model"
	"laermoe/internal/stats"
	"laermoe/internal/trace"
	"laermoe/internal/training"
	"laermoe/internal/viz"
)

// Fig1aResult reproduces Fig. 1(a): the routing distribution of
// Mixtral-8x7B over training iterations, showing per-expert token shares
// drifting over time with overloaded experts at almost every step.
type Fig1aResult struct {
	Table *Table
	// Shares[iter][expert] is the global token share of each expert at
	// one iteration (layer 0).
	Shares [][]float64
	// Imbalance[iter] is max/mean expert load per iteration.
	Imbalance []float64
}

// Fig1a generates the token-distribution study.
func Fig1a(opts Options) (*Fig1aResult, error) {
	opts = opts.withDefaults()
	iters := 200
	if opts.Quick {
		iters = 50
	}
	arch := model.Mixtral8x7B
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices:         opts.Topo.N(),
		Experts:         arch.Experts,
		Layers:          1,
		TokensPerDevice: 4096,
		TopK:            arch.TopK,
		Seed:            opts.Seed + 11,
	})
	if err != nil {
		return nil, err
	}
	res := &Fig1aResult{}
	perExpert := make([][]float64, arch.Experts)
	for it := 0; it < iters; it++ {
		m := gen.Step()[0]
		loads := m.ExpertLoads()
		total := stats.Sum(loads)
		shares := make([]float64, len(loads))
		for j, v := range loads {
			shares[j] = v / total
			perExpert[j] = append(perExpert[j], shares[j])
		}
		res.Shares = append(res.Shares, shares)
		res.Imbalance = append(res.Imbalance, stats.Imbalance(loads))
	}

	t := &Table{
		ID:     "fig1a",
		Title:  "Token distribution while training Mixtral-8x7B (layer 0 shares over iterations)",
		Header: []string{"expert", "mean share", "min share", "max share", "share over time"},
	}
	for j := 0; j < arch.Experts; j++ {
		t.AddRow(
			f2(float64(j)),
			pct(stats.Mean(perExpert[j])),
			pct(stats.Min(perExpert[j])),
			pct(stats.Max(perExpert[j])),
			viz.Sparkline(sample(perExpert[j], 48)),
		)
	}
	t.AddRow("max/mean", f2(stats.Mean(res.Imbalance)), f2(stats.Min(res.Imbalance)),
		f2(stats.Max(res.Imbalance)), viz.Sparkline(sample(res.Imbalance, 48)))
	t.Notes = append(t.Notes,
		"uniform share would be 12.5%; overloaded experts appear at almost every iteration and the hot set drifts")
	res.Table = t
	return res, nil
}

// sample downsamples a series to at most n points.
func sample(xs []float64, n int) []float64 {
	if len(xs) <= n {
		return xs
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// Fig1bResult reproduces Fig. 1(b): the time breakdown of the FSDP+EP
// baseline under real (imbalanced) routing versus enforced fully balanced
// routing — imbalance inflates the All-to-All share severalfold.
type Fig1bResult struct {
	Table         *Table
	DefaultShare  float64 // A2A share with dynamic routing
	BalancedShare float64 // A2A share with enforced balance
}

// Fig1b generates the breakdown comparison.
func Fig1b(opts Options) (*Fig1bResult, error) {
	opts = opts.withDefaults()
	res := &Fig1bResult{}
	t := &Table{
		ID:     "fig1b",
		Title:  "Time breakdown, FSDP+EP: dynamic routing vs enforced balance (Mixtral-8x7B e8k2)",
		Header: []string{"condition", "iter (s)", "a2a (s)", "expert (s)", "others (s)", "a2a share"},
	}
	conds := []struct {
		label  string
		system training.System
	}{
		{"default", training.SystemFSDPEP},
		{"balanced", training.SystemBalanced},
	}
	runs := make([]*metrics.Run, len(conds))
	err := forEach(opts.Workers(), len(conds), func(i int) error {
		run, _, err := training.Run(training.RunConfig{
			System:     conds[i].system,
			Arch:       model.Mixtral8x7B,
			Topo:       opts.Topo,
			Iterations: opts.Iterations,
			Warmup:     opts.Warmup,
			TraceSkew:  1.15,
			Seed:       opts.Seed + 21,
		})
		if err != nil {
			return err
		}
		runs[i] = run
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range conds {
		run := runs[i]
		bd := run.MeanBreakdown()
		t.AddRow(c.label, f1(run.MeanIterationTime()), f1(bd.A2A), f1(bd.Expert),
			f1(bd.Others()), pct(bd.A2AShare()))
		if c.label == "default" {
			res.DefaultShare = bd.A2AShare()
		} else {
			res.BalancedShare = bd.A2AShare()
		}
	}
	t.Notes = append(t.Notes,
		"load imbalance turns straggler waiting into measured All-to-All time (Sec. 1)")
	res.Table = t
	return res, nil
}

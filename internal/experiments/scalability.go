package experiments

import (
	"fmt"

	"laermoe/internal/model"
	"laermoe/internal/topology"
	"laermoe/internal/training"
)

// Table4Result reproduces Appendix D (Table 4): the MLP-module speedup of
// LAER-MoE over FSDP+EP as the simulated cluster scales from 8 to 128
// GPUs, driven by Mixtral-8x7B e8k2 routing.
type Table4Result struct {
	Table *Table
	// Speedup[n] is the MLP (token All-to-All + expert compute) speedup
	// at cluster size n.
	Speedup map[int]float64
}

// Table4 runs the scalability simulation.
func Table4(opts Options) (*Table4Result, error) {
	opts = opts.withDefaults()
	sizes := []int{8, 16, 32, 64, 128}
	if opts.Quick {
		sizes = []int{8, 32}
	}
	arch := model.Mixtral8x7B
	res := &Table4Result{Speedup: map[int]float64{}}
	t := &Table{
		ID:     "tab4",
		Title:  "Simulated MLP speedup of LAER-MoE vs FSDP+EP on varying cluster sizes (Mixtral-8x7B e8k2 routing)",
		Header: []string{"GPUs", "fsdp+ep MLP (s)", "laer MLP (s)", "MLP speedup"},
	}
	systems := []training.System{training.SystemFSDPEP, training.SystemLAER}
	mlps := make([]float64, len(sizes)*len(systems))
	err := forEach(opts.Workers(), len(mlps), func(i int) error {
		n := sizes[i/len(systems)]
		sys := systems[i%len(systems)]
		nodes := n / 8
		if nodes == 0 {
			nodes = 1
		}
		topo := topology.New(nodes, n/nodes)
		run, _, err := training.Run(training.RunConfig{
			System:     sys,
			Arch:       arch,
			Topo:       topo,
			Iterations: opts.Iterations,
			Warmup:     opts.Warmup,
			TraceSkew:  1.15,
			Seed:       opts.Seed + 301,
			// Appendix D models the MLP module at fixed per-device
			// load; memory feasibility is out of scope at N=8.
			ForceTokensPerDevice: 16384,
			GlobalBatchTokens:    n * 16384 * 4,
		})
		if err != nil {
			return err
		}
		bd := run.MeanBreakdown()
		mlps[i] = bd.A2A + bd.Expert
		return nil
	})
	if err != nil {
		return nil, err
	}
	for k, n := range sizes {
		fsdp, laer := mlps[k*len(systems)], mlps[k*len(systems)+1]
		speedup := fsdp / laer
		res.Speedup[n] = speedup
		t.AddRow(fmt.Sprintf("%d", n), f1(fsdp), f1(laer), f3(speedup)+"x")
	}
	t.Notes = append(t.Notes, "paper: speedup stays ~1.48-1.49x from 8 to 128 GPUs")
	res.Table = t
	return res, nil
}

package experiments

import (
	"fmt"

	"laermoe/internal/model"
	"laermoe/internal/training"
)

// Fig8Cell is one end-to-end measurement of Fig. 8.
type Fig8Cell struct {
	Model      string
	Dataset    string
	AuxWeight  float64
	System     training.System
	Throughput float64 // tokens/s
	IterTime   float64
}

// Fig8Result reproduces Fig. 8: end-to-end throughput of LAER-MoE,
// Megatron, FSDP+EP and FlexMoE across the six model configurations.
type Fig8Result struct {
	Table *Table
	Cells []Fig8Cell
	// SpeedupVsMegatron / SpeedupVsFSDP / SpeedupVsFlex index by
	// "model/dataset/weight".
	SpeedupVsMegatron map[string]float64
	SpeedupVsFSDP     map[string]float64
	SpeedupVsFlex     map[string]float64
}

// Fig8Systems are the compared systems, in presentation order.
var Fig8Systems = []training.System{
	training.SystemMegatron, training.SystemFSDPEP,
	training.SystemFlexMoE, training.SystemLAER,
}

// Fig8 runs the end-to-end comparison. Quick mode runs one dataset and
// weight; the full mode covers both datasets and both evaluated aux-loss
// weights (0 and 1e-4).
func Fig8(opts Options) (*Fig8Result, error) {
	opts = opts.withDefaults()
	models := model.All()
	datasets := Datasets()
	weights := []float64{0, 1e-4}
	if opts.Quick {
		models = []*model.Config{model.Mixtral8x7B, model.Mixtral8x7BE16}
		datasets = datasets[:1]
		weights = weights[:1]
	}

	res := &Fig8Result{
		SpeedupVsMegatron: map[string]float64{},
		SpeedupVsFSDP:     map[string]float64{},
		SpeedupVsFlex:     map[string]float64{},
	}
	t := &Table{
		ID:    "fig8",
		Title: "End-to-end throughput (tokens/s) and LAER speedups",
		Header: []string{"model", "dataset", "aux", "megatron", "fsdp+ep", "flexmoe", "laer",
			"vs meg", "vs fsdp", "vs flex"},
	}

	// The grid cells are independent runs: fan them across the worker
	// pool and assemble rows in index order afterwards.
	type cellCfg struct {
		arch *model.Config
		ds   Dataset
		w    float64
		sys  training.System
	}
	var cells []cellCfg
	for _, arch := range models {
		for _, ds := range datasets {
			for _, w := range weights {
				for _, sys := range Fig8Systems {
					cells = append(cells, cellCfg{arch: arch, ds: ds, w: w, sys: sys})
				}
			}
		}
	}
	runs := make([]Fig8Cell, len(cells))
	err := forEach(opts.Workers(), len(cells), func(i int) error {
		c := cells[i]
		run, _, err := training.Run(training.RunConfig{
			System:        c.sys,
			Arch:          c.arch,
			Topo:          opts.Topo,
			AuxLossWeight: c.w,
			Iterations:    opts.Iterations,
			Warmup:        opts.Warmup,
			TraceSkew:     c.ds.Skew,
			Seed:          c.ds.Seed + opts.Seed,
		})
		if err != nil {
			return fmt.Errorf("fig8 %s/%s/%s: %w", c.arch.Name, c.ds.Name, c.sys, err)
		}
		runs[i] = Fig8Cell{
			Model: c.arch.Name, Dataset: c.ds.Name, AuxWeight: c.w, System: c.sys,
			Throughput: run.Throughput(), IterTime: run.MeanIterationTime(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for i := 0; i < len(cells); i += len(Fig8Systems) {
		c := cells[i]
		tput := map[training.System]float64{}
		for k, sys := range Fig8Systems {
			tput[sys] = runs[i+k].Throughput
			res.Cells = append(res.Cells, runs[i+k])
		}
		key := fmt.Sprintf("%s/%s/%g", c.arch.Name, c.ds.Name, c.w)
		laer := tput[training.SystemLAER]
		res.SpeedupVsMegatron[key] = laer / tput[training.SystemMegatron]
		res.SpeedupVsFSDP[key] = laer / tput[training.SystemFSDPEP]
		res.SpeedupVsFlex[key] = laer / tput[training.SystemFlexMoE]
		t.AddRow(c.arch.Name, c.ds.Name, fmt.Sprintf("%g", c.w),
			f0(tput[training.SystemMegatron]), f0(tput[training.SystemFSDPEP]),
			f0(tput[training.SystemFlexMoE]), f0(laer),
			f2(res.SpeedupVsMegatron[key])+"x",
			f2(res.SpeedupVsFSDP[key])+"x",
			f2(res.SpeedupVsFlex[key])+"x")
	}
	t.Notes = append(t.Notes,
		"paper: up to 1.69x vs Megatron, 1.50x vs FSDP+EP, avg ~1.20x vs FlexMoE; "+
			"FSDP+EP beats Megatron on e8k2 (memory forces Megatron to larger TP), Megatron wins on e16k4")
	res.Table = t
	return res, nil
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }

// MaxSpeedup returns the largest value in a speedup map.
func MaxSpeedup(m map[string]float64) float64 {
	best := 0.0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// MeanSpeedup returns the average value in a speedup map.
func MeanSpeedup(m map[string]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s / float64(len(m))
}

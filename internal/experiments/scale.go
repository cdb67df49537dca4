package experiments

import (
	"fmt"

	"laermoe/internal/model"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
	"laermoe/internal/training"
)

// ScaleCell is one shape/policy measurement of the production-scale online
// re-layout experiment.
type ScaleCell struct {
	Devices int
	Experts int
	Layers  int
	Policy  training.ReplanPolicy

	TotalStepTime float64
	Throughput    float64
	Migrations    int
	Imbalance     float64 // mean over epochs
	// PlannerTime is the measured wall-clock CPU time of every boundary
	// solve (informational; excluded from the golden-pinned table).
	PlannerTime float64
}

// ScaleResult is the `scale` experiment: online re-layout at production
// cluster shapes — 512 and 1024 devices, 64 MoE layers, expert pools up to
// 4096 — comparing the never-replanned static baseline against warm-start
// replanning over a migrating hot set. These shapes are only tractable
// because trace synthesis and the warm solver run allocation-free on
// reused buffers (Generator.StepInto, the solver scratch arena) with
// per-layer generation fanned across the worker pool.
type ScaleResult struct {
	Table *Table
	Cells []ScaleCell
}

// scaleShape is one simulated deployment shape.
type scaleShape struct {
	arch   *model.Config
	layers int
	nodes  int
	gpus   int
	tokens int
}

func scaleShapes(quick bool) []scaleShape {
	if quick {
		// One modest shape keeps the golden/determinism suites fast while
		// still exercising the large-E code paths (E >> slots per device).
		return []scaleShape{
			{arch: model.SyntheticE512, layers: 4, nodes: 16, gpus: 8, tokens: 2048},
		}
	}
	return []scaleShape{
		{arch: model.SyntheticE2048, layers: 64, nodes: 64, gpus: 8, tokens: 2048},
		{arch: model.SyntheticE4096, layers: 64, nodes: 128, gpus: 8, tokens: 1024},
		// The frontier cell: 4096 GPUs x 16384 experts. Two layers — the
		// dense routing matrix alone is 4096x16384 per layer — which is
		// enough to measure what the drift-delta planner amortizes at a
		// shape where a full per-layer re-score costs O(E*N).
		{arch: model.SyntheticE16384, layers: 2, nodes: 512, gpus: 8, tokens: 512},
	}
}

// Scale runs the production-scale online re-layout sweep: policy x shape
// on a migrating-hot-set trace, with FSEP's free re-layout (the regime the
// paper argues for at scale). Every cell replays the same trace, so the
// static-vs-warm gap isolates what load-adaptive re-layout buys when both
// the cluster and the expert pool are one to two orders of magnitude past
// the paper's 32-GPU evaluation.
func Scale(opts Options) (*ScaleResult, error) {
	opts = opts.withDefaults()
	shapes := scaleShapes(opts.Quick)
	policies := []training.ReplanPolicy{training.ReplanStatic, training.ReplanWarm}

	type cellCfg struct {
		shape  scaleShape
		policy training.ReplanPolicy
	}
	var cells []cellCfg
	for _, sh := range shapes {
		for _, pol := range policies {
			cells = append(cells, cellCfg{shape: sh, policy: pol})
		}
	}

	runs := make([]ScaleCell, len(cells))
	err := forEach(opts.Workers(), len(cells), func(i int) error {
		c := cells[i]
		arch := *c.shape.arch
		arch.Layers = c.shape.layers
		n := c.shape.nodes * c.shape.gpus
		rep, err := training.RunOnline(training.OnlineConfig{
			Policy: c.policy,
			Arch:   &arch,
			Topo:   topology.New(c.shape.nodes, c.shape.gpus),
			Epochs: 2, IterationsPerEpoch: 3,
			Drift:                trace.DriftConfig{Model: trace.DriftMigration, Rate: 0.3},
			ForceTokensPerDevice: c.shape.tokens,
			GlobalBatchTokens:    n * c.shape.tokens,
			Parallelism:          1, // the cells themselves fan out
			Seed:                 opts.Seed,
		})
		if err != nil {
			return fmt.Errorf("scale N=%d E=%d %s: %w", n, arch.Experts, c.policy, err)
		}
		cell := ScaleCell{
			Devices: n, Experts: arch.Experts, Layers: arch.Layers,
			Policy:        c.policy,
			TotalStepTime: rep.TotalStepTime,
			Throughput:    rep.MeanThroughput,
			Migrations:    rep.TotalMigrations,
		}
		for _, e := range rep.Epochs {
			cell.Imbalance += e.Imbalance
			cell.PlannerTime += e.PlannerTime
		}
		cell.Imbalance /= float64(len(rep.Epochs))
		runs[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "scale",
		Title: "Online re-layout at production scale: policy x shape on a migrating hot set (free FSEP re-layout)",
		Header: []string{"N (GPUs)", "E", "layers", "policy", "total step (s)",
			"tokens/s", "migrations", "imbalance"},
	}
	for _, cell := range runs {
		t.AddRow(
			fmt.Sprintf("%d", cell.Devices),
			fmt.Sprintf("%d", cell.Experts),
			fmt.Sprintf("%d", cell.Layers),
			string(cell.Policy),
			f1(cell.TotalStepTime), f0(cell.Throughput),
			fmt.Sprintf("%d", cell.Migrations), f2(cell.Imbalance))
	}
	t.Notes = append(t.Notes,
		"shapes one to two orders of magnitude past the paper's 32-GPU testbed; trace synthesis and warm solves run allocation-free on reused buffers",
		"warm-start replanning halves the load imbalance everywhere; it turns into throughput where expert compute sits on the critical path,",
		"while at the bandwidth-bound 1024-GPU shape All-to-All serialization absorbs the balance win (the Eq. 1 overlap boundary)")
	return &ScaleResult{Table: t, Cells: runs}, nil
}

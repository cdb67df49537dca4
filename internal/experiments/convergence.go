package experiments

import (
	"fmt"
	"math"

	"laermoe/internal/model"
	"laermoe/internal/training"
	"laermoe/internal/viz"
)

// Fig2Result reproduces Fig. 2: loss curves under different auxiliary-loss
// weights — larger weights need more steps to reach equal loss.
type Fig2Result struct {
	Table *Table
	// StepsToTarget[weight] for the common target loss.
	StepsToTarget map[float64]int
}

// Fig2 generates the auxiliary-loss convergence comparison.
func Fig2(opts Options) *Fig2Result {
	m := training.DefaultConvergenceModel()
	steps := 3000
	weights := []float64{0, 1e-4, 1e-3, 1e-2}
	target := m.Loss(2500, 0) // loss the unregularized run reaches late in training
	res := &Fig2Result{StepsToTarget: map[float64]int{}}
	t := &Table{
		ID:     "fig2",
		Title:  "Loss vs steps for auxiliary-loss weights (Mixtral-8x7B e8k2 proxy)",
		Header: []string{"aux weight", "loss@1k", "loss@3k", "steps to target", "curve"},
	}
	for _, w := range weights {
		s := m.StepsToLoss(target, w, 100000)
		res.StepsToTarget[w] = s
		_, ys := m.LossCurve(steps, 60, w, 0)
		t.AddRow(fmt.Sprintf("%.0e", w), f3(m.Loss(1000, w)), f3(m.Loss(3000, w)),
			fmt.Sprintf("%d", s), viz.Sparkline(ys))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("target loss %.3f; larger weights need more steps (Fig. 2)", target))
	res.Table = t
	return res
}

// Fig9Result reproduces the Fig. 9 convergence study: LAER-MoE at aux
// weight 1e-4 versus Megatron at 1e-2 and 1e-4, over steps and wall-clock
// time, plus the relative-error track of Fig. 9(b).
type Fig9Result struct {
	Table      *Table
	ErrorTable *Table
	// TimeToTarget maps "system@weight" to seconds of simulated training.
	TimeToTarget map[string]float64
	MaxRelError  float64
}

// Fig9 generates the convergence study.
func Fig9(opts Options) (*Fig9Result, error) {
	opts = opts.withDefaults()
	m := training.DefaultConvergenceModel()
	target := m.Loss(2500, 0)
	maxSteps := 100000

	type entry struct {
		label  string
		system training.System
		weight float64
		seed   int64
	}
	entries := []entry{
		{"LAER-MoE@1e-4", training.SystemLAER, 1e-4, 1},
		{"Megatron@1e-2", training.SystemMegatron, 1e-2, 2},
		{"Megatron@1e-4", training.SystemMegatron, 1e-4, 2},
	}

	res := &Fig9Result{TimeToTarget: map[string]float64{}}
	t := &Table{
		ID:    "fig9",
		Title: "Convergence: loss over steps and wall-clock (Mixtral-8x7B e8k2, 4K ctx)",
		Header: []string{"system", "iter (s)", "steps to target", "time to target (h)",
			"loss vs time"},
	}
	iterTimes := make([]float64, len(entries))
	err := forEach(opts.Workers(), len(entries), func(i int) error {
		run, _, err := training.Run(training.RunConfig{
			System:        entries[i].system,
			Arch:          model.Mixtral8x7B,
			Topo:          opts.Topo,
			AuxLossWeight: entries[i].weight,
			Iterations:    opts.Iterations,
			Warmup:        opts.Warmup,
			ContextLen:    4096,
			Seed:          opts.Seed + 31,
		})
		if err != nil {
			return err
		}
		iterTimes[i] = run.MeanIterationTime()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, e := range entries {
		iterTime := iterTimes[i]
		steps := m.StepsToLoss(target, e.weight, maxSteps)
		wall := float64(steps) * iterTime
		res.TimeToTarget[e.label] = wall
		_, ys := m.LossCurve(steps, steps/40+1, e.weight, e.seed)
		t.AddRow(e.label, f1(iterTime), fmt.Sprintf("%d", steps), f1(wall/3600), viz.Sparkline(ys))
	}
	t.Notes = append(t.Notes,
		"LAER trains at low aux weight without paying the imbalance tax, giving the best wall-clock convergence")

	// Fig. 9(b): relative loss error of LAER vs Megatron at equal weight.
	et := &Table{
		ID:     "fig9b",
		Title:  "Relative loss error, LAER-MoE vs Megatron, aux weight 1e-4",
		Header: []string{"step range", "max |rel err|", "within 1e-3"},
	}
	for _, span := range [][2]int{{1, 750}, {751, 1500}, {1501, 2250}, {2251, 3000}} {
		worst := 0.0
		for s := span[0]; s <= span[1]; s++ {
			a := m.LossWithJitter(s, 1e-4, 1)
			b := m.LossWithJitter(s, 1e-4, 2)
			rel := math.Abs(a-b) / b
			if rel > worst {
				worst = rel
			}
		}
		if worst > res.MaxRelError {
			res.MaxRelError = worst
		}
		et.AddRow(fmt.Sprintf("%d-%d", span[0], span[1]), fmt.Sprintf("%.2e", worst),
			fmt.Sprintf("%v", worst < 1e-3))
	}
	et.Notes = append(et.Notes, "FSEP changes only storage/communication patterns, so losses track within numerical noise (Sec. 3.1)")
	res.Table = t
	res.ErrorTable = et
	return res, nil
}

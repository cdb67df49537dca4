package experiments

import (
	"fmt"

	"laermoe/internal/metrics"
	"laermoe/internal/model"
	"laermoe/internal/stats"
	"laermoe/internal/training"
	"laermoe/internal/viz"
)

// caseStudySystems are the systems of the Sec. 5.3 case study.
var caseStudySystems = []training.System{
	training.SystemFSDPEP, training.SystemFlexMoE, training.SystemLAER,
}

// caseStudyModels are the Mixtral-8x7B variants of the case study.
func caseStudyModels(quick bool) []*model.Config {
	if quick {
		return []*model.Config{model.Mixtral8x7B}
	}
	return []*model.Config{model.Mixtral8x7B, model.Mixtral8x7BE16}
}

func caseStudyRun(opts Options, sys training.System, arch *model.Config) (*metrics.Run, error) {
	run, _, err := training.Run(training.RunConfig{
		System:     sys,
		Arch:       arch,
		Topo:       opts.Topo,
		Iterations: opts.Iterations,
		Warmup:     opts.Warmup,
		TraceSkew:  1.15, // wikitext
		Seed:       opts.Seed + 101,
	})
	return run, err
}

// caseStudyGrid runs the (model x system) case-study grid on the worker
// pool and returns runs indexed [model][system], matching the order of
// caseStudyModels and caseStudySystems.
func caseStudyGrid(opts Options) ([][]*metrics.Run, error) {
	archs := caseStudyModels(opts.Quick)
	runs := make([][]*metrics.Run, len(archs))
	for i := range runs {
		runs[i] = make([]*metrics.Run, len(caseStudySystems))
	}
	err := forEach(opts.Workers(), len(archs)*len(caseStudySystems), func(i int) error {
		mi, si := i/len(caseStudySystems), i%len(caseStudySystems)
		run, err := caseStudyRun(opts, caseStudySystems[si], archs[mi])
		if err != nil {
			return err
		}
		runs[mi][si] = run
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// Fig10aResult reproduces Fig. 10(a): the end-to-end time breakdown of the
// case study, highlighting the All-to-All component.
type Fig10aResult struct {
	Table *Table
	// A2AShare["system/model"] is the All-to-All fraction.
	A2AShare map[string]float64
	// A2ASpeedupVsFSDP["model"] is LAER's All-to-All time reduction.
	A2ASpeedupVsFSDP map[string]float64
}

// Fig10a generates the breakdown case study.
func Fig10a(opts Options) (*Fig10aResult, error) {
	opts = opts.withDefaults()
	res := &Fig10aResult{A2AShare: map[string]float64{}, A2ASpeedupVsFSDP: map[string]float64{}}
	t := &Table{
		ID:     "fig10a",
		Title:  "Case study: end-to-end time breakdown (Wikitext)",
		Header: []string{"model", "system", "iter (s)", "a2a (s)", "expert (s)", "others (s)", "a2a share"},
	}
	runs, err := caseStudyGrid(opts)
	if err != nil {
		return nil, err
	}
	for mi, arch := range caseStudyModels(opts.Quick) {
		fsdpA2A := 0.0
		for si, sys := range caseStudySystems {
			run := runs[mi][si]
			bd := run.MeanBreakdown()
			key := fmt.Sprintf("%s/%s", sys, arch.Name)
			res.A2AShare[key] = bd.A2AShare()
			if sys == training.SystemFSDPEP {
				fsdpA2A = bd.A2A
			}
			if sys == training.SystemLAER && bd.A2A > 0 {
				res.A2ASpeedupVsFSDP[arch.Name] = fsdpA2A / bd.A2A
			}
			t.AddRow(arch.Name, string(sys), f1(run.MeanIterationTime()),
				f1(bd.A2A), f1(bd.Expert), f1(bd.Others()), pct(bd.A2AShare()))
		}
	}
	t.Notes = append(t.Notes,
		"paper: FSDP+EP a2a reaches ~40%, LAER stays below 20% with up to 2.68x a2a speedup; expert compute is similar across systems")
	res.Table = t
	return res, nil
}

// Fig10bResult reproduces Fig. 10(b): the relative maximum token count per
// MoE layer (1.0 = perfect balance).
type Fig10bResult struct {
	Table *Table
	// MeanImbalance["system/model"] averages the per-layer series.
	MeanImbalance map[string]float64
	// Series["system/model"] is the per-layer series itself.
	Series map[string][]float64
}

// Fig10b generates the per-layer balance study.
func Fig10b(opts Options) (*Fig10bResult, error) {
	opts = opts.withDefaults()
	res := &Fig10bResult{MeanImbalance: map[string]float64{}, Series: map[string][]float64{}}
	t := &Table{
		ID:     "fig10b",
		Title:  "Case study: relative max token count per MoE layer (1.0 = perfect balance)",
		Header: []string{"model", "system", "mean", "worst layer", "per-layer"},
	}
	runs, err := caseStudyGrid(opts)
	if err != nil {
		return nil, err
	}
	for mi, arch := range caseStudyModels(opts.Quick) {
		for si, sys := range caseStudySystems {
			run := runs[mi][si]
			series := run.MeanPerLayerImbalance()
			key := fmt.Sprintf("%s/%s", sys, arch.Name)
			res.MeanImbalance[key] = stats.Mean(series)
			res.Series[key] = series
			t.AddRow(arch.Name, string(sys), f2(stats.Mean(series)), f2(stats.Max(series)),
				viz.Sparkline(series))
		}
	}
	t.Notes = append(t.Notes,
		"paper: LAER deviates least from ideal balance; the larger per-device expert count of e16k4 lets it get nearly perfect")
	res.Table = t
	return res, nil
}

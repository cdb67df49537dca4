package experiments

import (
	"fmt"

	"laermoe/internal/forecast"
	"laermoe/internal/model"
	"laermoe/internal/trace"
	"laermoe/internal/training"
)

// ForecastCell is one policy/predictor measurement of the prediction-
// quality experiment.
type ForecastCell struct {
	Drift     trace.DriftModel
	Policy    training.ReplanPolicy
	Predictor forecast.Kind // empty for the warm baseline

	TotalStepTime   float64
	Throughput      float64
	Migrations      int
	PredictedLayers int
	CorrectedLayers int
	ForecastError   float64
	// ObservationLag is training.OnlineReport.ObservationLag — the Fig. 7
	// adaptation-lag penalty the predictive policy removes.
	ObservationLag float64
}

// ForecastResult is the forecast-driven replanning experiment: throughput,
// forecast error and residual observation lag of the predictive policy
// against the warm baseline, across drift models and predictors.
type ForecastResult struct {
	Table *Table
	Cells []ForecastCell
}

// forecastDrifts returns the evaluated drift scenarios. The migration
// rate is lowered to 0.15 so the hot-set rotation stays smooth enough to
// carry epoch-over-epoch structure; stabilizing and bursty run at their
// defaults.
func forecastDrifts(quick bool) []trace.DriftConfig {
	if quick {
		return []trace.DriftConfig{
			{Model: trace.DriftStabilizing},
			{Model: trace.DriftBursty},
		}
	}
	return []trace.DriftConfig{
		{Model: trace.DriftStabilizing},
		{Model: trace.DriftMigration, Rate: 0.15},
		{Model: trace.DriftBursty},
	}
}

// Forecast runs the prediction-quality experiment: for every drift model,
// the warm baseline and the predictive policy under each load predictor,
// on the same trace with relocation charged at the NVLink-domain rate
// (expensive enough that churn costs real time, cheap enough that
// adaptation stays profitable). Quick mode trims to two drifts and the
// trend predictor.
func Forecast(opts Options) (*ForecastResult, error) {
	opts = opts.withDefaults()
	drifts := forecastDrifts(opts.Quick)
	predictors := forecast.Kinds()
	if opts.Quick {
		predictors = []forecast.Kind{forecast.KindTrend}
	}

	arch := model.Mixtral8x7B
	charge := training.RelocationCostPerReplica(arch, opts.Topo) * opts.Topo.InterBW / opts.Topo.IntraBW

	type cellCfg struct {
		drift     trace.DriftConfig
		policy    training.ReplanPolicy
		predictor forecast.Kind
	}
	var cells []cellCfg
	for _, d := range drifts {
		cells = append(cells, cellCfg{drift: d, policy: training.ReplanWarm})
		for _, p := range predictors {
			cells = append(cells, cellCfg{drift: d, policy: training.ReplanPredictive, predictor: p})
		}
	}

	runs := make([]ForecastCell, len(cells))
	err := forEach(opts.Workers(), len(cells), func(i int) error {
		c := cells[i]
		rep, err := training.RunOnline(training.OnlineConfig{
			Policy: c.policy,
			Arch:   arch,
			Topo:   opts.Topo,
			Epochs: 10, IterationsPerEpoch: 8,
			Drift:                   c.drift,
			MigrationCostPerReplica: charge,
			Predictor:               c.predictor,
			GlobalBatchTokens:       1 << 19,
			Parallelism:             1, // the cells themselves fan out
			Seed:                    opts.Seed,
		})
		if err != nil {
			return fmt.Errorf("forecast %s/%s: %w", c.drift.Model, c.policy, err)
		}
		cell := ForecastCell{
			Drift: c.drift.Model, Policy: c.policy, Predictor: c.predictor,
			TotalStepTime: rep.TotalStepTime,
			Throughput:    rep.MeanThroughput,
			Migrations:    rep.TotalMigrations,
			ForecastError: rep.MeanForecastError,
		}
		for _, e := range rep.Epochs {
			cell.PredictedLayers += e.PredictedLayers
			cell.CorrectedLayers += e.CorrectedLayers
		}
		cell.ObservationLag = rep.ObservationLag
		runs[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "forecast",
		Title: "Forecast-driven replanning: throughput and residual observation lag vs policy x drift x predictor",
		Header: []string{"drift", "policy", "total step (s)", "tokens/s",
			"migrations", "predicted", "corrected", "fc err", "obs lag (s)"},
	}
	for _, cell := range runs {
		label := string(cell.Policy)
		if cell.Policy == training.ReplanPredictive {
			label += "/" + string(cell.Predictor)
		}
		t.AddRow(string(cell.Drift), label,
			f1(cell.TotalStepTime), f0(cell.Throughput),
			fmt.Sprintf("%d", cell.Migrations),
			fmt.Sprintf("%d", cell.PredictedLayers),
			fmt.Sprintf("%d", cell.CorrectedLayers),
			f3(cell.ForecastError), f2(cell.ObservationLag))
	}
	t.Notes = append(t.Notes,
		"relocation charged at the NVLink-domain rate; obs lag sums (first iter - boundary charge - steady) over epochs >= 3",
		"trend forecasts recover the adaptation lag on smooth drifts; the confidence fallback pins bursty to warm behaviour")
	return &ForecastResult{Table: t, Cells: runs}, nil
}

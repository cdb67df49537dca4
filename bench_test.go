package laermoe

// The benchmark harness regenerates every table and figure of the paper's
// evaluation. Each benchmark runs one experiment end-to-end, reports its
// headline metrics via b.ReportMetric, and prints the full artifact table
// (the same output cmd/laer-exp produces) so a bench run doubles as a
// reproduction record:
//
//	go test -bench=. -benchmem
//
// Shape assertions live in internal/experiments tests; benches only
// measure and report.

import (
	"fmt"
	"os"
	"testing"

	"laermoe/internal/executor"
	"laermoe/internal/experiments"
	"laermoe/internal/model"
	"laermoe/internal/stats"
	"laermoe/internal/topology"
	"laermoe/internal/training"
)

func benchOpts() experiments.Options {
	return experiments.Options{Iterations: 10, Warmup: 2, Seed: 1}
}

// printTables emits the artifact once per benchmark run.
func printTables(b *testing.B, tables ...*experiments.Table) {
	b.Helper()
	for _, t := range tables {
		if t != nil {
			t.Write(os.Stdout)
		}
	}
}

// BenchmarkTable2ModelConfigs regenerates Table 2.
func BenchmarkTable2ModelConfigs(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Table2(benchOpts())
	}
	printTables(b, t)
}

// BenchmarkFig1aTokenDistribution regenerates Fig. 1(a).
func BenchmarkFig1aTokenDistribution(b *testing.B) {
	var r *experiments.Fig1aResult
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = experiments.Fig1a(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.Mean(r.Imbalance), "mean_imbalance")
	printTables(b, r.Table)
}

// BenchmarkFig1bBreakdown regenerates Fig. 1(b).
func BenchmarkFig1bBreakdown(b *testing.B) {
	var r *experiments.Fig1bResult
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = experiments.Fig1b(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.DefaultShare, "default_a2a_%")
	b.ReportMetric(100*r.BalancedShare, "balanced_a2a_%")
	printTables(b, r.Table)
}

// BenchmarkFig2AuxLossCurves regenerates Fig. 2.
func BenchmarkFig2AuxLossCurves(b *testing.B) {
	var r *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig2(benchOpts())
	}
	b.ReportMetric(float64(r.StepsToTarget[1e-2])/float64(r.StepsToTarget[1e-4]), "steps_ratio_1e2_vs_1e4")
	printTables(b, r.Table)
}

// BenchmarkFig8EndToEnd regenerates Fig. 8 (the full grid: 6 models x 2
// datasets x 2 aux weights x 4 systems).
func BenchmarkFig8EndToEnd(b *testing.B) {
	var r *experiments.Fig8Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = experiments.Fig8(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(experiments.MaxSpeedup(r.SpeedupVsMegatron), "max_speedup_vs_megatron")
	b.ReportMetric(experiments.MaxSpeedup(r.SpeedupVsFSDP), "max_speedup_vs_fsdp")
	b.ReportMetric(experiments.MeanSpeedup(r.SpeedupVsFlex), "mean_speedup_vs_flexmoe")
	printTables(b, r.Table)
}

// BenchmarkFig9Convergence regenerates Fig. 9.
func BenchmarkFig9Convergence(b *testing.B) {
	var r *experiments.Fig9Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = experiments.Fig9(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MaxRelError, "max_rel_loss_error")
	printTables(b, r.Table, r.ErrorTable)
}

// BenchmarkFig10aBreakdown regenerates Fig. 10(a).
func BenchmarkFig10aBreakdown(b *testing.B) {
	var r *experiments.Fig10aResult
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = experiments.Fig10a(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.A2AShare["laer/mixtral-8x7b-e8k2"], "laer_a2a_%")
	b.ReportMetric(r.A2ASpeedupVsFSDP["mixtral-8x7b-e8k2"], "a2a_speedup_vs_fsdp")
	printTables(b, r.Table)
}

// BenchmarkFig10bMaxTokens regenerates Fig. 10(b).
func BenchmarkFig10bMaxTokens(b *testing.B) {
	var r *experiments.Fig10bResult
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = experiments.Fig10b(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MeanImbalance["laer/mixtral-8x7b-e8k2"], "laer_rel_max_tokens")
	b.ReportMetric(r.MeanImbalance["fsdp+ep/mixtral-8x7b-e8k2"], "fsdp_rel_max_tokens")
	printTables(b, r.Table)
}

// BenchmarkTable3LiteRouting regenerates Table 3 (measured Go wall time).
func BenchmarkTable3LiteRouting(b *testing.B) {
	var r *experiments.Table3Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = experiments.Table3(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.RoutingMillis["mixtral-8x7b-e8k2"], "lite_routing_ms_per_iter")
	printTables(b, r.Table)
}

// BenchmarkFig11PlannerScaling regenerates Fig. 11 (measured solver time
// up to 1024 GPUs).
func BenchmarkFig11PlannerScaling(b *testing.B) {
	var r *experiments.Fig11Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = experiments.Fig11(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.SolveMillis[[2]int{1024, 8}], "solve_ms_n1024_c8")
	b.ReportMetric(r.BaselineMillis, "per_layer_budget_ms")
	printTables(b, r.Table)
}

// BenchmarkFig12Ablation regenerates Fig. 12.
func BenchmarkFig12Ablation(b *testing.B) {
	var r *experiments.Fig12Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = experiments.Fig12(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Throughput["laer"]/r.Throughput["fsdp+ep"], "laer_vs_fsdp")
	b.ReportMetric(r.Throughput["laer"]/r.Throughput["no_comm_opt"], "laer_vs_no_comm_opt")
	printTables(b, r.Table)
}

// BenchmarkTable4Scalability regenerates Appendix D's Table 4.
func BenchmarkTable4Scalability(b *testing.B) {
	var r *experiments.Table4Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = experiments.Table4(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Speedup[8], "mlp_speedup_n8")
	b.ReportMetric(r.Speedup[128], "mlp_speedup_n128")
	printTables(b, r.Table)
}

// BenchmarkScaleOnline regenerates the production-scale online re-layout
// artifact (quick shape: the full 512/1024-GPU sweep is a multi-minute
// run meant for `laer-exp scale`).
func BenchmarkScaleOnline(b *testing.B) {
	var r *experiments.ScaleResult
	var err error
	opts := benchOpts()
	opts.Quick = true
	for i := 0; i < b.N; i++ {
		if r, err = experiments.Scale(opts); err != nil {
			b.Fatal(err)
		}
	}
	if n := len(r.Cells); n >= 2 {
		b.ReportMetric(r.Cells[1].Throughput/r.Cells[0].Throughput, "warm_vs_static_tput")
	}
	printTables(b, r.Table)
}

// BenchmarkEq1OverlapThreshold regenerates the Eq. 1 analysis.
func BenchmarkEq1OverlapThreshold(b *testing.B) {
	var r *experiments.Eq1Result
	for i := 0; i < b.N; i++ {
		r = experiments.Eq1(benchOpts())
	}
	b.ReportMetric(r.ThresholdTokens, "threshold_tokens")
	printTables(b, r.Table)
}

// BenchmarkCommSchedulingModes is the DESIGN.md ablation of the Fig. 5
// scheduling ladder: default, relaxed, +scheduled, +delayed grad sync.
func BenchmarkCommSchedulingModes(b *testing.B) {
	modes := []struct {
		name string
		comm executor.CommOpts
	}{
		{"default", executor.CommOpts{}},
		{"relaxed", executor.CommOpts{RelaxedPrefetch: true}},
		{"scheduled", executor.CommOpts{RelaxedPrefetch: true, ScheduledPrefetch: true}},
		{"delayed", executor.AllCommOpts()},
	}
	rows := [][]string{{"mode", "iter (s)"}}
	for i := 0; i < b.N; i++ {
		rows = rows[:1]
		for _, m := range modes {
			run, _, err := training.Run(training.RunConfig{
				System: training.SystemLAER, Arch: model.Mixtral8x7B,
				Topo: topology.Default(), Comm: m.comm, CommSet: true,
				Iterations: 8, Warmup: 2, Seed: 77, TraceSkew: 1.15,
			})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, []string{m.name, fmt.Sprintf("%.2f", run.MeanIterationTime())})
		}
	}
	fmt.Println("== ablation: Fig. 5 communication scheduling ladder ==")
	for _, row := range rows {
		fmt.Printf("%-12s %s\n", row[0], row[1])
	}
	fmt.Println()
}

// BenchmarkHistoryEstimator is the DESIGN.md ablation of the asynchronous
// planner's history smoothing: plan from the last iteration only vs an
// EMA over the routing history.
func BenchmarkHistoryEstimator(b *testing.B) {
	alphas := []struct {
		name  string
		alpha float64
	}{
		{"last-iteration (α=1.0)", 1.0},
		{"ema (α=0.6)", 0.6},
		{"slow ema (α=0.2)", 0.2},
	}
	fmt.Println("== ablation: planner history estimator ==")
	for i := 0; i < b.N; i++ {
		for _, a := range alphas {
			run, _, err := training.Run(training.RunConfig{
				System: training.SystemLAER, Arch: model.Mixtral8x7B,
				Topo: topology.Default(), HistoryAlpha: a.alpha,
				Iterations: 8, Warmup: 2, Seed: 78, TraceSkew: 1.15,
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				fmt.Printf("%-24s iter %.2fs  imbalance %.3f\n", a.name,
					run.MeanIterationTime(), stats.Mean(run.MeanPerLayerImbalance()))
			}
		}
	}
	fmt.Println()
}

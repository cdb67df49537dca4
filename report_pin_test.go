package laermoe

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/online_report.pin")

// TestOnlineReportPin pins every exported field of SimulateOnline's report
// at full precision (floats as their IEEE-754 bits) on three runs that
// between them fill every field: a predictive training run (forecast
// diagnostics and the observation lag), a warm run absorbing a node
// failure (fault decisions and the recovery record) and an LLEP inference
// run on bursty arrivals (decode percentiles). The goldens print three
// significant figures; this catches a shift in the last bit. The fields
// are listed by name, not reflected, so the pin covers exactly the
// documented report and a field added later does not change it. Only
// PlannerTime, which is wall clock, is left out. Regenerate with
//
//	go test . -run TestOnlineReportPin -update
func TestOnlineReportPin(t *testing.T) {
	if testing.Short() {
		t.Skip("full-cluster simulation")
	}
	cases := []struct {
		name string
		opts OnlineOptions
	}{
		{"predictive", OnlineOptions{
			Spec: OnlineSessionSpec{
				Policy: PolicyPredictive, IterationsPerEpoch: 4, ForceTokensPerDevice: 1024, Seed: 7,
			},
			Epochs: 4, Drift: DriftStabilizing,
		}},
		{"warm-fault", OnlineOptions{
			Spec: OnlineSessionSpec{
				Policy: PolicyWarm, IterationsPerEpoch: 4,
				FaultSchedule: "1:fail:2", ForceTokensPerDevice: 1024, Seed: 7,
			},
			Epochs: 3, Drift: DriftStabilizing,
		}},
		{"llep-bursty", OnlineOptions{
			Spec: OnlineSessionSpec{
				Policy: PolicyLLEP, Workload: WorkloadInference, Arrival: ArrivalBursty,
				IterationsPerEpoch: 4, ForceTokensPerDevice: 1024, Seed: 7,
			},
			Epochs: 3,
		}},
	}
	var buf bytes.Buffer
	for _, c := range cases {
		rep, err := SimulateOnline(c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&buf, "case %s\n", c.name)
		writeReportPin(&buf, rep)
	}
	path := filepath.Join("testdata", "online_report.pin")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("online report drifted from %s.\n--- want ---\n%s\n--- got ---\n%s", path, want, buf.Bytes())
	}
}

func writeReportPin(w *bytes.Buffer, r *OnlineReport) {
	f := func(name string, v float64) { fmt.Fprintf(w, "%s %016x\n", name, math.Float64bits(v)) }
	fmt.Fprintf(w, "policy %s\nworkload %s\narrival %s\ndrift %s\nmodel %s\npredictor %s\n",
		r.Policy, r.Workload, r.Arrival, r.Drift, r.Model, r.Predictor)
	fmt.Fprintf(w, "global_batch %d\ntotal_migrations %d\n", r.GlobalBatch, r.TotalMigrations)
	f("total_step_time", r.TotalStepTime)
	f("mean_throughput", r.MeanThroughput)
	f("mean_forecast_error", r.MeanForecastError)
	f("decode_p50", r.DecodeP50)
	f("decode_p99", r.DecodeP99)
	f("observation_lag", r.ObservationLag)
	fmt.Fprintf(w, "epochs %d\n", len(r.Epochs))
	for _, e := range r.Epochs {
		fmt.Fprintf(w, "epoch %d\n", e.Epoch)
		f("step_time", e.StepTime)
		f("iteration_time", e.IterationTime)
		f("throughput", e.Throughput)
		fmt.Fprintf(w, "iteration_times %d\n", len(e.IterationTimes))
		for _, v := range e.IterationTimes {
			f("iteration_time", v)
		}
		fmt.Fprintf(w, "migrations %d\n", e.Migrations)
		f("migration_time", e.MigrationTime)
		f("boundary_migration_time", e.BoundaryMigrationTime)
		f("imbalance", e.Imbalance)
		fmt.Fprintf(w, "requests %d\n", e.Requests)
		f("decode_p50", e.DecodeP50)
		f("decode_p99", e.DecodeP99)
		fmt.Fprintf(w, "predicted_layers %d\ncorrected_layers %d\n", e.PredictedLayers, e.CorrectedLayers)
		f("forecast_error", e.ForecastError)
		writeDecisionsPin(w, "boundary_decisions", e.BoundaryDecisions)
		writeDecisionsPin(w, "observation_decisions", e.ObservationDecisions)
		fmt.Fprintf(w, "fault_events %d %q\n", len(e.FaultEvents), e.FaultEvents)
		writeDecisionsPin(w, "fault_decisions", e.FaultDecisions)
		fmt.Fprintf(w, "restored %d\n", e.Restored)
		f("restore_time", e.RestoreTime)
	}
	fmt.Fprintf(w, "recoveries %d\n", len(r.Recoveries))
	for _, rec := range r.Recoveries {
		fmt.Fprintf(w, "recovery epoch %d events %q restored %d epochs_to_recover %d\n",
			rec.Epoch, rec.Events, rec.Restored, rec.EpochsToRecover)
		f("restore_time", rec.RestoreTime)
		f("added_step_time", rec.AddedStepTime)
	}
}

// writeDecisionsPin writes one decision list, telling a nil list apart
// from an empty one.
func writeDecisionsPin(w *bytes.Buffer, name string, ds []LayerDecision) {
	if ds == nil {
		fmt.Fprintf(w, "%s nil\n", name)
		return
	}
	fmt.Fprintf(w, "%s %d\n", name, len(ds))
	for _, d := range ds {
		fmt.Fprintf(w, "layer %d %s moves %d restored %d %016x %016x %016x %016x\n",
			d.Layer, d.Action, d.Moves, d.Restored,
			math.Float64bits(d.MigrationTime), math.Float64bits(d.RestoreTime),
			math.Float64bits(d.PredictedImbalance), math.Float64bits(d.ForecastError))
	}
}

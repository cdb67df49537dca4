package laermoe_test

import (
	"fmt"

	"laermoe"
)

// The examples below are the README's and the package doc's snippets.
// They carry no Output comment, so go vet and go test compile them
// without running a simulation: a snippet that stops compiling fails the
// build instead of rotting in the docs.

func Example() {
	cluster, _ := laermoe.NewCluster(laermoe.ClusterSpec{Nodes: 4, GPUsPerNode: 8})
	report, _ := laermoe.Simulate(laermoe.SimOptions{
		System:  laermoe.SystemLAER,
		Model:   "mixtral-8x7b-e8k2",
		Cluster: cluster,
	})
	fmt.Printf("%.0f tokens/s, a2a share %.1f%%\n", report.Throughput, 100*report.A2AShare)
}

func ExampleSimulateOnline() {
	report, _ := laermoe.SimulateOnline(laermoe.OnlineOptions{
		Spec: laermoe.OnlineSessionSpec{
			Policy:             laermoe.PolicyPredictive,
			Predictor:          laermoe.PredictorTrend,
			Model:              "mixtral-8x7b-e8k2",
			IterationsPerEpoch: 8,
		},
		Epochs: 8,
		Drift:  laermoe.DriftStabilizing,
	})
	fmt.Printf("%.0f tok/s, %d replicas migrated, forecast err %.3f\n",
		report.MeanThroughput, report.TotalMigrations, report.MeanForecastError)
}

func ExampleSimulateOnline_inference() {
	report, _ := laermoe.SimulateOnline(laermoe.OnlineOptions{
		Spec: laermoe.OnlineSessionSpec{
			Policy:   "llep",
			Workload: "inference", Arrival: "bursty",
			Model:              "mixtral-8x7b-e8k2",
			IterationsPerEpoch: 6,
		},
		Epochs: 4,
	})
	fmt.Printf("decode latency p50 %.3fs p99 %.3fs\n",
		report.DecodeP50, report.DecodeP99)
}

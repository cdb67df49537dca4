// Package session declares the shared online-session specification: the
// policy/predictor/workload knobs one long-lived planning session runs
// with. Exactly one struct — embedded by laermoe.OnlineOptions, by the
// serve daemon's SessionSpec (whose JSON wire names it carries) and by
// laer-bench's session builder — replaces the three hand-kept copies
// those surfaces used to maintain.
//
// Zero values always mean "use the engine default", so the zero Spec is
// valid and selects a warm-start training session on the default model.
// Name validation (policy, predictor, workload, arrival) happens in the
// consuming layer via the engine's typed registry, not here: this package
// holds data, not the catalog. laermoe.SimulateOnline fails fast on an
// unknown name with the valid set in its error, and laermoe.Policies()
// and its siblings list the names.
package session

// Spec is the online-session configuration shared by the library, the
// serving daemon and the load harness. The JSON tags are the serve wire
// format; embedding Spec untagged in a request struct promotes them
// unchanged.
type Spec struct {
	// Model is a model-catalog name (default "mixtral-8x7b-e8k2").
	Model string `json:"model,omitempty"`

	// Policy is the replan policy name (default "warm"); see
	// laermoe.Policies() for the valid names.
	Policy string `json:"policy,omitempty"`

	// Workload selects what the session plans for: "training" (default,
	// step-time objective) or "inference" (request-level decode traffic,
	// latency objective). Arrival picks the inference traffic shape
	// ("diurnal" or "bursty"); it is ignored for training workloads.
	Workload string `json:"workload,omitempty"`
	Arrival  string `json:"arrival,omitempty"`

	// Predictor and ConfidenceThreshold configure the predictive policy
	// (defaults: "trend", 0.25; a negative threshold is rejected).
	Predictor           string  `json:"predictor,omitempty"`
	ConfidenceThreshold float64 `json:"confidence_threshold,omitempty"`

	// IterationsPerEpoch is the planning horizon migration charges are
	// amortized over (default 6, minimum 2).
	IterationsPerEpoch int `json:"iterations_per_epoch,omitempty"`

	// MigrationThreshold is the relative per-expert load change past which
	// the warm policy re-places an expert (0 = default 0.2, negative =
	// re-place on any change); MigrationCostPerReplica the wall time
	// charged per relocated replica in seconds (0 = free FSEP re-layout).
	MigrationThreshold      float64 `json:"migration_threshold,omitempty"`
	MigrationCostPerReplica float64 `json:"migration_cost_per_replica,omitempty"`

	// FaultSchedule is a faults.Parse schedule ("epoch[.iter]:kind:arg,...")
	// injected into offline runs. The serve daemon rejects it — live
	// sessions take topology changes via POST /topology instead.
	FaultSchedule string `json:"fault_schedule,omitempty"`

	// AuxLossWeight and DatasetSkew shape the routing distribution;
	// ForceTokensPerDevice bypasses the memory fitter and
	// GlobalBatchTokens overrides the per-iteration batch.
	AuxLossWeight        float64 `json:"aux_loss_weight,omitempty"`
	DatasetSkew          float64 `json:"dataset_skew,omitempty"`
	ForceTokensPerDevice int     `json:"force_tokens_per_device,omitempty"`
	GlobalBatchTokens    int     `json:"global_batch_tokens,omitempty"`

	Seed int64 `json:"seed,omitempty"`
}

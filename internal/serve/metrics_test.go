package serve

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"laermoe/internal/training"
)

// metricLine finds a family's sample line in the exposition text.
func metricLine(t *testing.T, text, name string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return line
		}
	}
	t.Fatalf("metric %s not in exposition", name)
	return ""
}

// TestSummaryCountersAreMonotone pins the Prometheus-semantics fix: a
// summary's _sum/_count are counters, so they must keep growing after the
// quantile window wraps. Before the fix they were computed from the
// 512-sample window and fell back to 512 forever — which breaks rate()
// and violates the exposition contract.
func TestSummaryCountersAreMonotone(t *testing.T) {
	m := newRecorder()
	const total = latencyWindow + 88
	resp := &ObserveResponse{
		Observation:  make([]training.LayerDecision, 1),
		SolveSeconds: 0.001,
	}
	resp.Summary.MeanPredictedImbalance = 1.5
	for i := 0; i < total; i++ {
		m.observeServed(resp, 1000, i%2 == 0)
	}
	var buf bytes.Buffer
	m.write(&buf)
	text := buf.String()

	if got, want := metricLine(t, text, "laer_serve_solve_latency_seconds_count"),
		fmt.Sprintf("laer_serve_solve_latency_seconds_count %d", total); got != want {
		t.Fatalf("solve latency count wrapped with the window: %q, want %q", got, want)
	}
	if got, want := metricLine(t, text, "laer_serve_predicted_imbalance_window_count"),
		fmt.Sprintf("laer_serve_predicted_imbalance_window_count %d", total); got != want {
		t.Fatalf("imbalance count wrapped with the window: %q, want %q", got, want)
	}
	sumLine := metricLine(t, text, "laer_serve_solve_latency_seconds_sum")
	var sum float64
	if _, err := fmt.Sscanf(sumLine, "laer_serve_solve_latency_seconds_sum %g", &sum); err != nil {
		t.Fatal(err)
	}
	if want := 0.001 * total; sum < want*0.999 || sum > want*1.001 {
		t.Fatalf("solve latency sum %g, want ~%g (lifetime, not window)", sum, want)
	}
	// The ingest-form split and the payload accounting add up to the epoch
	// count and the bytes fed in.
	if got, want := metricLine(t, text, "laer_serve_observe_payload_bytes_total"),
		fmt.Sprintf("laer_serve_observe_payload_bytes_total %d", total*1000); got != want {
		t.Fatalf("payload bytes: %q, want %q", got, want)
	}
	if got, want := metricLine(t, text, "laer_serve_observes_delta_total"),
		fmt.Sprintf("laer_serve_observes_delta_total %d", (total+1)/2); got != want {
		t.Fatalf("delta observes: %q, want %q", got, want)
	}
	if got, want := metricLine(t, text, "laer_serve_observes_dense_total"),
		fmt.Sprintf("laer_serve_observes_dense_total %d", total/2); got != want {
		t.Fatalf("dense observes: %q, want %q", got, want)
	}

	// And recovery latency, via the topology path.
	tresp := &TopologyUpdateResponse{RecoverySeconds: 0.002}
	for i := 0; i < total; i++ {
		m.topologyServed(tresp, 1)
	}
	buf.Reset()
	m.write(&buf)
	if got, want := metricLine(t, buf.String(), "laer_serve_recovery_latency_seconds_count"),
		fmt.Sprintf("laer_serve_recovery_latency_seconds_count %d", total); got != want {
		t.Fatalf("recovery latency count wrapped with the window: %q, want %q", got, want)
	}
}

// TestMetricsSchemaStable: every family — including the stream and
// journal ones added with durable sessions — is present from the first
// scrape, so dashboards never see a hole.
func TestMetricsSchemaStable(t *testing.T) {
	m := newRecorder()
	var buf bytes.Buffer
	m.write(&buf)
	text := buf.String()
	for _, name := range []string{
		"laer_serve_sessions_active",
		"laer_serve_sessions_opened_total",
		"laer_serve_streams_active",
		"laer_serve_streams_opened_total",
		"laer_serve_stream_events_total",
		"laer_serve_streams_dropped_total",
		"laer_serve_observe_payload_bytes_total",
		"laer_serve_observes_dense_total",
		"laer_serve_observes_delta_total",
		"laer_serve_observe_delta_resyncs_total",
		"laer_serve_sessions_replayed_total",
		"laer_serve_journal_replay_failures_total",
		"laer_serve_journal_errors_total",
		"laer_serve_journal_replay_seconds",
		"laer_serve_solve_latency_seconds_sum",
		"laer_serve_solve_latency_seconds_count",
		"laer_serve_recovery_latency_seconds_sum",
		"laer_serve_predicted_imbalance_window_sum",
	} {
		metricLine(t, text, name)
	}
	// Quantiles are windowed (and say so), sums are lifetime: the HELP
	// text documents the split so scraper authors don't have to read Go.
	if !strings.Contains(text, "sum/count lifetime-cumulative") {
		t.Fatal("HELP text does not document the windowed-quantile/lifetime-sum split")
	}
}

// recorderFixture feeds a recorder one fixed sequence of every event it
// counts, with sample values exact in binary.
func recorderFixture() *recorder {
	m := newRecorder()
	for i := 0; i < 3; i++ {
		m.sessionOpened()
	}
	m.sessionClosed()
	m.sessionEvicted()
	m.sessionReplayed()
	m.sessionReplayed()
	m.replayFailed()
	m.journalError()
	m.journalError()
	m.journalCompacted()
	m.replayFinished(0.125)
	m.streamOpened()
	m.streamOpened()
	m.streamClosed()
	m.streamDelivered(5)
	m.streamDropped()
	m.deltaResynced()
	m.topologyServed(&TopologyUpdateResponse{
		Decisions: []training.LayerDecision{
			{Action: training.ActionElasticRepair, Moves: 3, Restored: 2},
			{Action: training.ActionKeep},
		},
		RecoverySeconds: 0.25,
	}, 2)
	resp := &ObserveResponse{
		Boundary: []training.LayerDecision{{Action: training.ActionPredictiveReplan}},
		Observation: []training.LayerDecision{
			{Action: training.ActionKeep},
			{Action: training.ActionWarmReplan},
		},
		SolveSeconds: 0.5,
	}
	resp.Summary.Migrations = 4
	resp.Summary.IncrementalSolves = 1
	resp.Summary.FullSolves = 2
	resp.Summary.MeanPredictedImbalance = 1.5
	m.observeServed(resp, 2048, false)
	resp.SolveSeconds = 0.75
	resp.Summary.MeanPredictedImbalance = 1.25
	m.observeServed(resp, 512, true)
	m.observeServed(&ObserveResponse{SolveSeconds: 0.0625}, 100, true)
	return m
}

// TestMetricsExpositionPinned pins the full /metrics text of
// recorderFixture — family order, HELP and TYPE lines, sample formatting —
// so a change to how the exposition is rendered cannot move a byte of it.
func TestMetricsExpositionPinned(t *testing.T) {
	var buf bytes.Buffer
	recorderFixture().write(&buf)
	if got := buf.String(); got != wantExposition {
		t.Fatalf("exposition drifted:\n got:\n%s\nwant:\n%s", got, wantExposition)
	}
}

const wantExposition = `# HELP laer_serve_sessions_active Open planning sessions.
# TYPE laer_serve_sessions_active gauge
laer_serve_sessions_active 3
# HELP laer_serve_sessions_opened_total Sessions opened since start.
# TYPE laer_serve_sessions_opened_total counter
laer_serve_sessions_opened_total 3
# HELP laer_serve_sessions_closed_total Sessions closed since start.
# TYPE laer_serve_sessions_closed_total counter
laer_serve_sessions_closed_total 1
# HELP laer_serve_sessions_evicted_total Sessions evicted after idling past the TTL.
# TYPE laer_serve_sessions_evicted_total counter
laer_serve_sessions_evicted_total 1
# HELP laer_serve_epochs_observed_total Epoch observations planned.
# TYPE laer_serve_epochs_observed_total counter
laer_serve_epochs_observed_total 3
# HELP laer_serve_layer_decisions_total Per-layer re-layout decisions issued.
# TYPE laer_serve_layer_decisions_total counter
laer_serve_layer_decisions_total 8
# HELP laer_serve_replans_total Decisions that installed a new layout.
# TYPE laer_serve_replans_total counter
laer_serve_replans_total 5
# HELP laer_serve_replan_rate Fraction of decisions that replanned.
# TYPE laer_serve_replan_rate gauge
laer_serve_replan_rate 0.625
# HELP laer_serve_migrations_total Expert replicas relocated.
# TYPE laer_serve_migrations_total counter
laer_serve_migrations_total 11
# HELP laer_serve_incremental_solves_total Planning-step solves served through a synchronized drift tracker (amortized O(drifted experts)).
# TYPE laer_serve_incremental_solves_total counter
laer_serve_incremental_solves_total 2
# HELP laer_serve_full_solves_total Planning-step solves that re-scanned the whole layer.
# TYPE laer_serve_full_solves_total counter
laer_serve_full_solves_total 4
# HELP laer_serve_observe_payload_bytes_total Observation request payload bytes decoded (dense and delta).
# TYPE laer_serve_observe_payload_bytes_total counter
laer_serve_observe_payload_bytes_total 2660
# HELP laer_serve_observes_dense_total Epoch observations posted as dense routing matrices.
# TYPE laer_serve_observes_dense_total counter
laer_serve_observes_dense_total 1
# HELP laer_serve_observes_delta_total Epoch observations posted as sparse routing_delta records.
# TYPE laer_serve_observes_delta_total counter
laer_serve_observes_delta_total 2
# HELP laer_serve_observe_delta_resyncs_total Delta observes refused with 409 (epoch gap, missing base, or topology change); clients fall back to dense.
# TYPE laer_serve_observe_delta_resyncs_total counter
laer_serve_observe_delta_resyncs_total 1
# HELP laer_serve_topology_updates_total Topology updates applied.
# TYPE laer_serve_topology_updates_total counter
laer_serve_topology_updates_total 1
# HELP laer_serve_fault_events_total Membership/degradation fault events absorbed.
# TYPE laer_serve_fault_events_total counter
laer_serve_fault_events_total 2
# HELP laer_serve_replicas_restored_total Expert replicas re-read from checkpoint during recovery.
# TYPE laer_serve_replicas_restored_total counter
laer_serve_replicas_restored_total 2
# HELP laer_serve_streams_active Open SSE decision streams.
# TYPE laer_serve_streams_active gauge
laer_serve_streams_active 1
# HELP laer_serve_streams_opened_total SSE decision streams opened since start.
# TYPE laer_serve_streams_opened_total counter
laer_serve_streams_opened_total 2
# HELP laer_serve_stream_events_total Decision/topology events delivered to SSE subscribers.
# TYPE laer_serve_stream_events_total counter
laer_serve_stream_events_total 5
# HELP laer_serve_streams_dropped_total SSE subscribers disconnected for falling behind the event buffer.
# TYPE laer_serve_streams_dropped_total counter
laer_serve_streams_dropped_total 1
# HELP laer_serve_sessions_replayed_total Sessions restored from the decision journal at boot.
# TYPE laer_serve_sessions_replayed_total counter
laer_serve_sessions_replayed_total 2
# HELP laer_serve_journal_replay_failures_total Journaled sessions dropped at boot because replay failed or diverged.
# TYPE laer_serve_journal_replay_failures_total counter
laer_serve_journal_replay_failures_total 1
# HELP laer_serve_journal_errors_total Journal append failures (the session keeps serving; its journal is abandoned).
# TYPE laer_serve_journal_errors_total counter
laer_serve_journal_errors_total 2
# HELP laer_serve_journal_compactions_total Journal compactions: replayed history truncated to a planner-state checkpoint.
# TYPE laer_serve_journal_compactions_total counter
laer_serve_journal_compactions_total 1
# HELP laer_serve_journal_replay_seconds Wall time of the last boot's journal replay.
# TYPE laer_serve_journal_replay_seconds gauge
laer_serve_journal_replay_seconds 0.125
# HELP laer_serve_recovery_latency_seconds Topology-update recovery planning latency (quantiles over a sliding window; sum/count lifetime-cumulative).
# TYPE laer_serve_recovery_latency_seconds summary
laer_serve_recovery_latency_seconds{quantile="0.5"} 0.25
laer_serve_recovery_latency_seconds{quantile="0.99"} 0.25
laer_serve_recovery_latency_seconds_sum 0.25
laer_serve_recovery_latency_seconds_count 1
# HELP laer_serve_solve_latency_seconds Per-epoch planning solve latency (quantiles over a sliding window; sum/count lifetime-cumulative).
# TYPE laer_serve_solve_latency_seconds summary
laer_serve_solve_latency_seconds{quantile="0.5"} 0.5
laer_serve_solve_latency_seconds{quantile="0.99"} 0.745
laer_serve_solve_latency_seconds_sum 1.3125
laer_serve_solve_latency_seconds_count 3
# HELP laer_serve_predicted_imbalance Planner-predicted relative max device load of the latest epoch (1.0 = perfect).
# TYPE laer_serve_predicted_imbalance gauge
laer_serve_predicted_imbalance 1.25
# HELP laer_serve_predicted_imbalance_window Predicted-imbalance trajectory (quantiles over a sliding window; sum/count lifetime-cumulative).
# TYPE laer_serve_predicted_imbalance_window summary
laer_serve_predicted_imbalance_window{quantile="0.5"} 1.375
laer_serve_predicted_imbalance_window{quantile="0.99"} 1.4974999999999998
laer_serve_predicted_imbalance_window_sum 2.75
laer_serve_predicted_imbalance_window_count 2
`

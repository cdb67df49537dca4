package serve

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"laermoe/internal/stats"
	"laermoe/internal/training"
)

// latencyWindow bounds the sliding windows behind the /metrics quantiles:
// large enough that p99 over a busy daemon is meaningful, small enough
// that a quiet daemon's metrics reflect recent traffic, not its lifetime.
const latencyWindow = 512

// ring is a fixed-capacity sliding window of float64 samples.
type ring struct {
	buf  []float64
	next int
	full bool
}

func newRing(n int) *ring { return &ring{buf: make([]float64, n)} }

func (r *ring) add(v float64) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// values returns the window's samples (oldest-independent order; the
// quantile computations sort anyway).
func (r *ring) values() []float64 {
	if r.full {
		return append([]float64(nil), r.buf...)
	}
	return append([]float64(nil), r.buf[:r.next]...)
}

// summaryWindow is one Prometheus summary's state: a sliding window for
// the quantiles (recent traffic, not lifetime noise) and
// lifetime-cumulative sum/count for the `_sum`/`_count` series — summary
// sums and counts are counters and must never decrease, which windowed
// values do the moment the window wraps (that monotonicity violation
// silently breaks rate()). Each summary owns its own small mutex so a
// /metrics scrape — or another summary's update — never serializes the
// observe hot path the way the recorder's former global lock did.
type summaryWindow struct {
	mu    sync.Mutex
	win   *ring
	sum   float64
	count uint64
}

func newSummaryWindow() *summaryWindow { return &summaryWindow{win: newRing(latencyWindow)} }

func (s *summaryWindow) add(v float64) {
	s.mu.Lock()
	s.win.add(v)
	s.sum += v
	s.count++
	s.mu.Unlock()
}

func (s *summaryWindow) snapshot() (vals []float64, sum float64, count uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.win.values(), s.sum, s.count
}

// atomicFloat is a float64 gauge readable and writable without a lock.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }

// recorder aggregates the daemon's operational metrics: counters over the
// lifetime, sliding windows for solve latency and the predicted-imbalance
// trajectory. All methods are safe for concurrent use. Counters and
// gauges are atomics and the summaries carry per-summary locks, so the
// hot observe path (a herd of simultaneous sessions) never serializes on
// one recorder-wide mutex, and a /metrics scrape reads concurrently with
// it. Metrics need no cross-counter atomicity — a scrape racing an update
// may see the epoch counted before its latency sample, which Prometheus
// semantics allow.
type recorder struct {
	sessionsActive  atomic.Int64
	sessionsOpened  atomic.Uint64
	sessionsClosed  atomic.Uint64
	sessionsEvicted atomic.Uint64

	epochs            atomic.Uint64
	layerDecisions    atomic.Uint64
	replans           atomic.Uint64
	migrations        atomic.Uint64
	incrementalSolves atomic.Uint64
	fullSolves        atomic.Uint64

	observePayloadBytes atomic.Uint64
	observesDense       atomic.Uint64
	observesDelta       atomic.Uint64
	deltaResyncs        atomic.Uint64

	topologyUpdates  atomic.Uint64
	faultEvents      atomic.Uint64
	replicasRestored atomic.Uint64

	streamsActive  atomic.Int64
	streamsOpened  atomic.Uint64
	streamEvents   atomic.Uint64
	streamsDropped atomic.Uint64

	sessionsReplayed   atomic.Uint64
	replayFailures     atomic.Uint64
	journalErrors      atomic.Uint64
	journalCompactions atomic.Uint64
	replaySeconds      atomicFloat

	solveLat      *summaryWindow
	recoveryLat   *summaryWindow
	imbalance     *summaryWindow
	lastImbalance atomicFloat
}

func newRecorder() *recorder {
	return &recorder{
		solveLat:    newSummaryWindow(),
		recoveryLat: newSummaryWindow(),
		imbalance:   newSummaryWindow(),
	}
}

func (m *recorder) sessionOpened() {
	m.sessionsActive.Add(1)
	m.sessionsOpened.Add(1)
}

func (m *recorder) sessionClosed() {
	m.sessionsActive.Add(-1)
	m.sessionsClosed.Add(1)
}

func (m *recorder) sessionEvicted() {
	m.sessionsActive.Add(-1)
	m.sessionsEvicted.Add(1)
}

func (m *recorder) sessionReplayed() {
	m.sessionsActive.Add(1)
	m.sessionsReplayed.Add(1)
}

func (m *recorder) replayFailed() { m.replayFailures.Add(1) }

func (m *recorder) journalError() { m.journalErrors.Add(1) }

func (m *recorder) journalCompacted() { m.journalCompactions.Add(1) }

func (m *recorder) replayFinished(seconds float64) { m.replaySeconds.store(seconds) }

func (m *recorder) streamOpened() {
	m.streamsActive.Add(1)
	m.streamsOpened.Add(1)
}

func (m *recorder) streamClosed() { m.streamsActive.Add(-1) }

func (m *recorder) streamDelivered(events int) { m.streamEvents.Add(uint64(events)) }

func (m *recorder) streamDropped() { m.streamsDropped.Add(1) }

// deltaResynced counts a delta observe refused with 409 (epoch gap, no
// base, or a topology change): the client falls back to a dense post.
func (m *recorder) deltaResynced() { m.deltaResyncs.Add(1) }

// topologyServed folds one applied topology update into the metrics.
func (m *recorder) topologyServed(resp *TopologyUpdateResponse, events int) {
	m.topologyUpdates.Add(1)
	m.faultEvents.Add(uint64(events))
	for _, d := range resp.Decisions {
		m.layerDecisions.Add(1)
		if d.Action != training.ActionKeep {
			m.replans.Add(1)
		}
		m.migrations.Add(uint64(d.Moves))
		m.replicasRestored.Add(uint64(d.Restored))
	}
	m.recoveryLat.add(resp.RecoverySeconds)
}

// observeServed folds one planned epoch into the metrics: the decision
// counts, the request's wire cost in payload bytes, and which ingest form
// (dense routing or routing_delta) carried it.
func (m *recorder) observeServed(resp *ObserveResponse, payloadBytes int64, delta bool) {
	m.epochs.Add(1)
	m.observePayloadBytes.Add(uint64(payloadBytes))
	if delta {
		m.observesDelta.Add(1)
	} else {
		m.observesDense.Add(1)
	}
	for _, decs := range [...][]training.LayerDecision{resp.Boundary, resp.Observation} {
		for _, d := range decs {
			m.layerDecisions.Add(1)
			if d.Action != training.ActionKeep {
				m.replans.Add(1)
			}
		}
	}
	m.migrations.Add(uint64(resp.Summary.Migrations))
	m.incrementalSolves.Add(uint64(resp.Summary.IncrementalSolves))
	m.fullSolves.Add(uint64(resp.Summary.FullSolves))
	m.solveLat.add(resp.SolveSeconds)
	if len(resp.Observation) > 0 {
		m.imbalance.add(resp.Summary.MeanPredictedImbalance)
		m.lastImbalance.store(resp.Summary.MeanPredictedImbalance)
	}
}

// family is one Prometheus metric family of the exposition: its name,
// help text and type, and its current value — an integer or float sample,
// or the *summaryWindow behind a summary.
type family struct {
	name, help, typ string
	value           any
}

// families reads every family's current value, in exposition order.
func (m *recorder) families() []family {
	rate := 0.0
	if decs := m.layerDecisions.Load(); decs > 0 {
		rate = float64(m.replans.Load()) / float64(decs)
	}
	const windowed = " (quantiles over a sliding window; sum/count lifetime-cumulative)."
	return []family{
		{"laer_serve_sessions_active", "Open planning sessions.", "gauge", m.sessionsActive.Load()},
		{"laer_serve_sessions_opened_total", "Sessions opened since start.", "counter", m.sessionsOpened.Load()},
		{"laer_serve_sessions_closed_total", "Sessions closed since start.", "counter", m.sessionsClosed.Load()},
		{"laer_serve_sessions_evicted_total", "Sessions evicted after idling past the TTL.", "counter", m.sessionsEvicted.Load()},

		{"laer_serve_epochs_observed_total", "Epoch observations planned.", "counter", m.epochs.Load()},
		{"laer_serve_layer_decisions_total", "Per-layer re-layout decisions issued.", "counter", m.layerDecisions.Load()},
		{"laer_serve_replans_total", "Decisions that installed a new layout.", "counter", m.replans.Load()},
		{"laer_serve_replan_rate", "Fraction of decisions that replanned.", "gauge", rate},
		{"laer_serve_migrations_total", "Expert replicas relocated.", "counter", m.migrations.Load()},
		{"laer_serve_incremental_solves_total", "Planning-step solves served through a synchronized drift tracker (amortized O(drifted experts)).", "counter", m.incrementalSolves.Load()},
		{"laer_serve_full_solves_total", "Planning-step solves that re-scanned the whole layer.", "counter", m.fullSolves.Load()},

		{"laer_serve_observe_payload_bytes_total", "Observation request payload bytes decoded (dense and delta).", "counter", m.observePayloadBytes.Load()},
		{"laer_serve_observes_dense_total", "Epoch observations posted as dense routing matrices.", "counter", m.observesDense.Load()},
		{"laer_serve_observes_delta_total", "Epoch observations posted as sparse routing_delta records.", "counter", m.observesDelta.Load()},
		{"laer_serve_observe_delta_resyncs_total", "Delta observes refused with 409 (epoch gap, missing base, or topology change); clients fall back to dense.", "counter", m.deltaResyncs.Load()},

		{"laer_serve_topology_updates_total", "Topology updates applied.", "counter", m.topologyUpdates.Load()},
		{"laer_serve_fault_events_total", "Membership/degradation fault events absorbed.", "counter", m.faultEvents.Load()},
		{"laer_serve_replicas_restored_total", "Expert replicas re-read from checkpoint during recovery.", "counter", m.replicasRestored.Load()},

		{"laer_serve_streams_active", "Open SSE decision streams.", "gauge", m.streamsActive.Load()},
		{"laer_serve_streams_opened_total", "SSE decision streams opened since start.", "counter", m.streamsOpened.Load()},
		{"laer_serve_stream_events_total", "Decision/topology events delivered to SSE subscribers.", "counter", m.streamEvents.Load()},
		{"laer_serve_streams_dropped_total", "SSE subscribers disconnected for falling behind the event buffer.", "counter", m.streamsDropped.Load()},

		{"laer_serve_sessions_replayed_total", "Sessions restored from the decision journal at boot.", "counter", m.sessionsReplayed.Load()},
		{"laer_serve_journal_replay_failures_total", "Journaled sessions dropped at boot because replay failed or diverged.", "counter", m.replayFailures.Load()},
		{"laer_serve_journal_errors_total", "Journal append failures (the session keeps serving; its journal is abandoned).", "counter", m.journalErrors.Load()},
		{"laer_serve_journal_compactions_total", "Journal compactions: replayed history truncated to a planner-state checkpoint.", "counter", m.journalCompactions.Load()},
		{"laer_serve_journal_replay_seconds", "Wall time of the last boot's journal replay.", "gauge", m.replaySeconds.load()},

		{"laer_serve_recovery_latency_seconds", "Topology-update recovery planning latency" + windowed, "summary", m.recoveryLat},
		{"laer_serve_solve_latency_seconds", "Per-epoch planning solve latency" + windowed, "summary", m.solveLat},
		{"laer_serve_predicted_imbalance", "Planner-predicted relative max device load of the latest epoch (1.0 = perfect).", "gauge", m.lastImbalance.load()},
		{"laer_serve_predicted_imbalance_window", "Predicted-imbalance trajectory" + windowed, "summary", m.imbalance},
	}
}

// write renders the Prometheus text exposition. Quantiles come from the
// sliding windows via stats.Percentile; families with no samples yet are
// emitted with zero values so scrapers always see a stable schema.
func (m *recorder) write(w io.Writer) {
	for _, f := range m.families() {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		if s, ok := f.value.(*summaryWindow); ok {
			writeSummary(w, f.name, s)
			continue
		}
		// %v prints integers in decimal and floats as %g.
		fmt.Fprintf(w, "%s %v\n", f.name, f.value)
	}
}

// writeSummary emits the samples of one Prometheus summary family:
// p50/p99 from the sliding window, `_sum`/`_count` from the lifetime
// counters so they stay monotone after the window wraps.
func writeSummary(w io.Writer, name string, s *summaryWindow) {
	vals, sum, count := s.snapshot()
	for _, q := range []float64{50, 99} {
		v := 0.0
		if len(vals) > 0 {
			v = stats.Percentile(vals, q)
		}
		fmt.Fprintf(w, "%s{quantile=\"%g\"} %g\n", name, q/100, v)
	}
	fmt.Fprintf(w, "%s_sum %g\n", name, sum)
	fmt.Fprintf(w, "%s_count %d\n", name, count)
}

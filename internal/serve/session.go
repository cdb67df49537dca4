package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"laermoe/internal/faults"
	"laermoe/internal/forecast"
	"laermoe/internal/journal"
	"laermoe/internal/model"
	"laermoe/internal/par"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
	"laermoe/internal/training"
	sessionspec "laermoe/session"
)

// SessionSpec is the body of POST /v1/sessions: the cluster shape, policy
// and drift-tracking configuration one planning session runs with. The
// policy/predictor/workload knobs are the shared session.Spec, embedded
// untagged so its JSON wire names carry over; the daemon adds only the
// cluster shape and the relocation-cost toggle. Zero values select the
// same defaults the online engine uses, so a spec of `{}` opens a
// warm-start training session on the paper's evaluation cluster.
type SessionSpec struct {
	sessionspec.Spec

	// Nodes and GPUsPerNode are the cluster shape (defaults 4 and 8).
	Nodes       int `json:"nodes,omitempty"`
	GPUsPerNode int `json:"gpus_per_node,omitempty"`

	// ChargeRelocation derives the optimizer-state relocation cost from
	// the model and cluster (ignored when MigrationCostPerReplica is set).
	ChargeRelocation bool `json:"charge_relocation,omitempty"`
}

func (s SessionSpec) withDefaults() SessionSpec {
	if s.Nodes == 0 {
		s.Nodes = 4
	}
	if s.GPUsPerNode == 0 {
		s.GPUsPerNode = 8
	}
	return s
}

// validate rejects specs the planner would misbehave on, naming the JSON
// field so the 400 tells the client what to fix. It runs on the spec as
// posted (before defaults), so a zero field is "use the default", never an
// error.
func (s SessionSpec) validate() error {
	if s.Nodes < 0 || s.GPUsPerNode < 0 {
		return fmt.Errorf("serve: nodes and gpus_per_node must be positive (got %d and %d)", s.Nodes, s.GPUsPerNode)
	}
	// Names resolve through the one policy/predictor/workload registry, so
	// the daemon accepts exactly what the engine accepts — a policy added
	// to the registry is servable with no change here.
	if s.Policy != "" {
		if _, err := training.ResolvePolicy(training.ReplanPolicy(s.Policy)); err != nil {
			return fmt.Errorf("serve: policy: %w", err)
		}
	}
	if s.Predictor != "" {
		if err := training.ResolvePredictor(forecast.Kind(s.Predictor)); err != nil {
			return fmt.Errorf("serve: predictor: %w", err)
		}
	}
	if s.Workload != "" {
		if err := training.ResolveWorkload(training.Workload(s.Workload)); err != nil {
			return fmt.Errorf("serve: workload: %w", err)
		}
	}
	if s.Arrival != "" {
		if err := trace.ArrivalShape(s.Arrival).Validate(); err != nil {
			return fmt.Errorf("serve: arrival: %w", err)
		}
	}
	if s.FaultSchedule != "" {
		return fmt.Errorf("serve: fault_schedule is an offline-run option; live sessions take topology changes via POST /v1/sessions/{id}/topology")
	}
	if s.IterationsPerEpoch != 0 && s.IterationsPerEpoch < 2 {
		return fmt.Errorf("serve: iterations_per_epoch must be at least 2 to amortize migrations (got %d)", s.IterationsPerEpoch)
	}
	if s.MigrationCostPerReplica < 0 {
		return fmt.Errorf("serve: migration_cost_per_replica must not be negative (got %g)", s.MigrationCostPerReplica)
	}
	if s.ConfidenceThreshold < 0 {
		return fmt.Errorf("serve: confidence_threshold must not be negative (got %g)", s.ConfidenceThreshold)
	}
	return nil
}

// maxLayoutCells bounds layers x experts x devices for one session: the
// largest shape the scale experiment plans (synthetic-e4096, 64 layers on
// 128x8 GPUs). Past it, building the planner alone can exhaust the
// daemon's memory and take every other session down with it.
const maxLayoutCells = 1 << 28

// checkLayoutCells rejects a cluster shape whose layouts would exceed
// maxLayoutCells. The product is taken by division, so no posted shape can
// overflow it; a wrapped device count would reach the planner as 0.
func checkLayoutCells(arch *model.Config, nodes, gpusPerNode int) error {
	budget := maxLayoutCells
	for _, f := range []int{arch.Layers, arch.Experts, nodes, gpusPerNode} {
		budget /= f
	}
	if budget == 0 {
		return fmt.Errorf("serve: nodes x gpus_per_node (%d x %d) too large: %s's %d layers x %d experts over that many devices exceed %d layout cells",
			nodes, gpusPerNode, arch.Name, arch.Layers, arch.Experts, maxLayoutCells)
	}
	return nil
}

// SessionInfo describes an open session: the resolved shape a client needs
// to produce observations (one Devices x Experts matrix per layer) and the
// planning configuration in force.
type SessionInfo struct {
	ID        string `json:"id"`
	Model     string `json:"model"`
	Policy    string `json:"policy"`
	Workload  string `json:"workload"`
	Arrival   string `json:"arrival,omitempty"`
	Predictor string `json:"predictor,omitempty"`

	Devices         int `json:"devices"`
	Experts         int `json:"experts"`
	Layers          int `json:"layers"`
	TopK            int `json:"topk"`
	ExpertCapacity  int `json:"expert_capacity"`
	TokensPerDevice int `json:"tokens_per_device"`

	IterationsPerEpoch      int     `json:"iterations_per_epoch"`
	MigrationCostPerReplica float64 `json:"migration_cost_per_replica"`
	Seed                    int64   `json:"seed"`

	// Epochs counts the observations this session has planned so far.
	Epochs int `json:"epochs"`

	// AvailableDevices is the number of devices currently alive in the
	// session's topology (equals Devices until a topology update masks
	// some out), and FaultEvents the membership/degradation events the
	// session has absorbed.
	AvailableDevices int `json:"available_devices"`
	FaultEvents      int `json:"fault_events,omitempty"`
}

// ObserveRequest is the body of POST /v1/sessions/{id}/observe: one
// epoch's observed expert loads, in exactly one of two forms.
//
// Routing is the dense form: per-layer routing matrices,
// Routing[layer][device][expert] token counts — exactly what the online
// engine's observation iteration realizes.
//
// RoutingDelta is the sparse form: one trace.WireDelta per layer, the
// difference against the observation the session last planned. It is
// epoch-sequenced: Epoch must equal the session's planned-epoch count
// (i.e. the epoch index this observation is for, which is also the Epoch
// the previous ObserveResponse would imply). A gap — wrong Epoch, no
// prior observation, or any topology update since the last observe —
// makes the server refuse with 409 Conflict, and the client must fall
// back to a dense post before resuming deltas. The two forms are
// mutually exclusive; Epoch is ignored on dense posts.
type ObserveRequest struct {
	Routing      [][][]int          `json:"routing,omitempty"`
	Epoch        int                `json:"epoch,omitempty"`
	RoutingDelta []*trace.WireDelta `json:"routing_delta,omitempty"`
}

// ObserveResponse is the re-layout decision for one observed epoch. The
// decision lists are the same structs (and therefore the same JSON bytes)
// training.RunOnline reports for the same observation sequence.
type ObserveResponse struct {
	Session string `json:"session"`
	Epoch   int    `json:"epoch"`

	// Boundary holds the forecast-driven decisions taken before this
	// epoch's first iteration (predictive policy only), Observation the
	// per-layer reactive decisions planned from the posted loads.
	Boundary    []training.LayerDecision `json:"boundary"`
	Observation []training.LayerDecision `json:"observation"`

	// Summary aggregates the epoch across layers.
	Summary training.EpochSummary `json:"summary"`

	// SolveSeconds is the measured wall time of this request's planning
	// solves (informational; excluded from the journal, which must stay
	// byte-reproducible).
	SolveSeconds float64 `json:"solve_seconds"`
}

// TopologyUpdateRequest is the body of POST /v1/sessions/{id}/topology:
// membership/degradation events to apply to the session's cluster, in
// order. Each event is a faults.Event; its epoch/iteration fields are
// ignored — the update is effective immediately.
type TopologyUpdateRequest struct {
	Events []faults.Event `json:"events"`
}

// TopologyUpdateResponse reports the forced re-layout a topology update
// triggered. Decisions are the same structs (and therefore the same JSON
// bytes) training.RunOnline records as FaultDecisions for the same events
// against the same planning state.
type TopologyUpdateResponse struct {
	Session string `json:"session"`

	// Decisions is the per-layer recovery decision (elastic repair,
	// checkpoint restore, or keep).
	Decisions []training.LayerDecision `json:"decisions"`

	// AvailableDevices is the post-update live device count.
	AvailableDevices int `json:"available_devices"`

	// RecoveryChargeSeconds is the simulated wall time the recovery puts
	// on the training job's critical path (checkpoint reads plus any
	// migration charges), summed across layers; RecoverySeconds is the
	// measured latency of planning the recovery (informational; excluded
	// from the journal).
	RecoveryChargeSeconds float64 `json:"recovery_charge_seconds"`
	RecoverySeconds       float64 `json:"recovery_seconds"`
}

// session is one client's long-lived planning state: the decision core
// (per-layer warm-start solvers with their scratch arenas, the layouts in
// force, the forecasters) plus request bookkeeping. Requests against one
// session serialize on its mutex; distinct sessions plan concurrently,
// sharing the server's worker pool.
type session struct {
	// id, seq and spec are immutable after construction, readable without
	// the mutex (the TTL janitor depends on that). spec is the session
	// spec as the client posted it (pre-defaults): journal compaction
	// rewrites the opening record from it.
	id   string
	seq  uint64
	spec SessionSpec

	mu   sync.Mutex
	info SessionInfo
	core *training.OnlinePlanner

	// routing is the session's retained observation: one matrix per layer,
	// allocated on the first observe and reused for every later one —
	// dense posts copy into it, delta posts apply onto it, so the observe
	// path allocates no matrices in steady state. haveBase reports whether
	// it holds the observation the session last planned; topology updates
	// clear it (the cluster changed under the client, so the next
	// observation must be dense), as does a planner-state restore without
	// a journaled baseline. Guarded by mu.
	routing  []*trace.RoutingMatrix
	haveBase bool

	// lastActive is the time of the session's last client request (unix
	// nanoseconds), the idle-TTL eviction clock. It is atomic so the
	// janitor's scan never queues behind an in-flight solve holding mu —
	// with a mutex-guarded clock, one slow session stalls eviction of
	// every session behind it in the scan.
	lastActive atomic.Int64

	// jw is the session's journal writer (nil when journaling is off);
	// jerr latches the first append failure — the session keeps serving
	// but stops journaling, so a half-written journal never masquerades
	// as a complete one. store backs the compaction rewrites (nil when
	// journaling is off).
	jw        *journal.Writer
	jerr      bool
	snapEvery int
	store     *journal.Store

	// subs are the session's live SSE subscribers (see stream.go),
	// guarded by subMu — publishes happen under mu, subscribes don't.
	// subsClosed is the reason closeSubscribers ended them ("" while the
	// session is live).
	subMu      sync.Mutex
	subs       map[*subscriber]struct{}
	subsClosed string

	metrics *recorder
	logf    func(format string, args ...any)

	// failed poisons the session after a solve error: a mid-fanout failure
	// leaves the planner state (layouts, predictors) partially advanced,
	// so replaying the observation would silently diverge from the
	// byte-identity contract. Every later observe refuses with this error.
	failed error
}

// newSession validates a spec and builds its planning core on the shared
// pool. The error is a client error (bad spec), suitable for a 400.
func newSession(id string, seq uint64, spec SessionSpec, pool *par.Pool) (*session, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	posted := spec
	spec = spec.withDefaults()
	topo := topology.New(spec.Nodes, spec.GPUsPerNode)
	cfg, err := training.SpecConfig(spec.Spec, topo)
	if err != nil {
		return nil, err
	}
	if err := checkLayoutCells(cfg.Arch, spec.Nodes, spec.GPUsPerNode); err != nil {
		return nil, err
	}
	arch := cfg.Arch
	if cfg.MigrationCostPerReplica == 0 && spec.ChargeRelocation {
		cfg.MigrationCostPerReplica = training.RelocationCostPerReplica(arch, topo)
	}
	cfg.Pool = pool
	core, err := training.NewOnlinePlanner(cfg)
	if err != nil {
		return nil, err
	}
	info := SessionInfo{
		ID: id, Model: arch.Name, Policy: string(cfg.Policy),
		Workload: string(cfg.Workload), Arrival: string(cfg.Arrival),
		Devices: core.Devices(), Experts: core.Experts(), Layers: core.Layers(),
		TopK: arch.TopK, ExpertCapacity: arch.ExpertCapacity,
		TokensPerDevice:         core.Setup().TokensPerDev,
		IterationsPerEpoch:      cfg.IterationsPerEpoch,
		MigrationCostPerReplica: cfg.MigrationCostPerReplica,
		Seed:                    cfg.Seed,
		AvailableDevices:        core.Devices(),
	}
	if pspec, perr := training.ResolvePolicy(cfg.Policy); perr == nil && pspec.Predictive {
		info.Predictor = string(cfg.Predictor)
	}
	sess := &session{id: id, seq: seq, spec: posted, info: info, core: core}
	sess.touch()
	return sess, nil
}

// attach wires a session to its server's metrics, logging and journal
// cadence. The journal writer itself is set separately — at open time by
// the handler, after the replay loop by replaySession — so replay, which
// runs the handlers' observe and applyTopology, never re-journals the
// records it is feeding.
func (s *session) attach(srv *Server) {
	s.metrics = srv.metrics
	s.logf = srv.logf
	s.snapEvery = srv.opts.SnapshotEvery
	s.store = srv.store
}

// journalLocked appends one record under the session mutex, so journal
// order is decision order. A failed append disables journaling for the
// rest of the session's life (jerr): the daemon keeps serving — losing
// durability is better than losing availability — but the failure is
// counted and logged, and the stale journal will fail replay verification
// rather than silently resurrect an old state.
func (s *session) journalLocked(kind journal.Kind, payload any) {
	if s.jw == nil || s.jerr {
		return
	}
	if err := s.jw.Append(kind, payload); err != nil {
		s.jerr = true
		if s.metrics != nil {
			s.metrics.journalError()
		}
		if s.logf != nil {
			s.logf("session %s: journal append failed, journaling disabled: %v", s.id, err)
		}
	}
}

// maybeSnapshotLocked compacts the journal every snapEvery epochs: the
// replayed history collapses to the opening record plus one full
// planner-state checkpoint (with its digest), so a long-lived session's
// journal is bounded by snapEvery epochs of records instead of growing
// with its lifetime. Replay restores from the checkpoint, re-derives the
// digest, and verifies it — so corruption, a restore-fidelity bug, or a
// code change that moved a decision trips at boot, loudly. A failed
// rewrite latches jerr: the old writer may point at a replaced file, and
// appending to it would silently drop records.
func (s *session) maybeSnapshotLocked() {
	if s.jw == nil || s.jerr || s.snapEvery <= 0 || s.info.Epochs%s.snapEvery != 0 {
		return
	}
	st, err := s.core.ExportState()
	if err == nil {
		recs := []journal.RewriteRecord{
			{Kind: journal.KindOpen, Payload: openRecord{Seq: s.seq, Spec: s.spec}},
			{Kind: journal.KindState, Payload: stateRecord{
				Epochs:           s.info.Epochs,
				Digest:           fmt.Sprintf("%016x", s.core.StateDigest()),
				AvailableDevices: s.info.AvailableDevices,
				FaultEvents:      s.info.FaultEvents,
				State:            st,
			}},
		}
		if s.haveBase {
			// The dense checkpoint of the retained observation: delta
			// records appended after this rewrite need matrices to apply
			// onto at replay. Rewrite marshals synchronously under s.mu, so
			// referencing the live rows is safe.
			rows := make([][][]int, len(s.routing))
			for l, m := range s.routing {
				rows[l] = m.R
			}
			recs = append(recs, journal.RewriteRecord{Kind: journal.KindBaseline, Payload: baselineRecord{Routing: rows}})
		}
		var jw *journal.Writer
		jw, err = s.store.Rewrite(s.id, recs)
		if err == nil {
			s.jw = jw
			if s.metrics != nil {
				s.metrics.journalCompacted()
			}
			return
		}
	}
	s.jerr = true
	if s.metrics != nil {
		s.metrics.journalError()
	}
	if s.logf != nil {
		s.logf("session %s: journal compaction failed, journaling disabled: %v", s.id, err)
	}
}

// errDeltaResync marks a delta observe the session cannot sequence: no
// retained base observation, a wrong epoch, or a topology change since the
// last observe. The handler maps it to 409 Conflict; the client recovers
// by posting the same observation dense.
var errDeltaResync = errors.New("routing_delta cannot be applied; repost the observation as dense routing")

// clientError wraps a failure the client caused and the session could
// only discover under its lock: a bad delta payload against the retained
// matrices, or topology events invalid against the live topology. The
// handlers map it to 400 instead of 500. The session is untouched.
type clientError struct{ err error }

func (e clientError) Error() string { return e.err.Error() }
func (e clientError) Unwrap() error { return e.err }

// validateObserve structurally validates one epoch's posted observation —
// dense shape and non-negativity, or per-layer wire-delta structure —
// against the session's immutable shape. It runs outside the session
// mutex (shape fields never change after construction), so request
// decoding and validation never serialize behind another request's solve.
// The error is a client error.
func (s *session) validateObserve(req ObserveRequest) error {
	dense, delta := req.Routing != nil, req.RoutingDelta != nil
	if dense == delta {
		return fmt.Errorf("serve: exactly one of routing and routing_delta must be set")
	}
	if delta {
		if len(req.RoutingDelta) != s.info.Layers {
			return fmt.Errorf("serve: %d routing deltas for %d layers", len(req.RoutingDelta), s.info.Layers)
		}
		for l, d := range req.RoutingDelta {
			if d == nil {
				return fmt.Errorf("serve: layer %d routing delta is null", l)
			}
			if err := d.Validate(s.info.Devices, s.info.Experts); err != nil {
				return fmt.Errorf("serve: layer %d: %w", l, err)
			}
		}
		return nil
	}
	if len(req.Routing) != s.info.Layers {
		return fmt.Errorf("serve: %d routing matrices for %d layers", len(req.Routing), s.info.Layers)
	}
	for l, rows := range req.Routing {
		if len(rows) != s.info.Devices {
			return fmt.Errorf("serve: layer %d has %d device rows, want %d", l, len(rows), s.info.Devices)
		}
		for d, row := range rows {
			if len(row) != s.info.Experts {
				return fmt.Errorf("serve: layer %d device %d has %d expert columns, want %d", l, d, len(row), s.info.Experts)
			}
			for e, v := range row {
				if v < 0 {
					return fmt.Errorf("serve: layer %d device %d expert %d has negative load %d", l, d, e, v)
				}
			}
		}
	}
	return nil
}

// ensureRoutingLocked lazily allocates the retained per-layer matrices.
// Caller holds s.mu.
func (s *session) ensureRoutingLocked() {
	if s.routing != nil {
		return
	}
	s.routing = make([]*trace.RoutingMatrix, s.info.Layers)
	for l := range s.routing {
		s.routing[l] = trace.NewRoutingMatrix(s.info.Devices, s.info.Experts)
	}
}

// applyDenseLocked copies a validated dense observation into the retained
// matrices. Caller holds s.mu and has run validateObserve.
func (s *session) applyDenseLocked(rows [][][]int) {
	s.ensureRoutingLocked()
	for l, layer := range rows {
		for d, row := range layer {
			copy(s.routing[l].R[d], row)
		}
	}
}

// applyDeltaLocked sequences and applies a validated delta observation
// onto the retained matrices. Every layer is checked before any layer is
// applied, so a rejected delta leaves the retained observation untouched.
// Caller holds s.mu and has run validateObserve.
func (s *session) applyDeltaLocked(epoch int, deltas []*trace.WireDelta) error {
	if !s.haveBase {
		return fmt.Errorf("serve: session %s has no retained observation to apply a delta onto: %w", s.id, errDeltaResync)
	}
	if epoch != s.info.Epochs {
		return fmt.Errorf("serve: delta for epoch %d but session %s is at epoch %d: %w", epoch, s.id, s.info.Epochs, errDeltaResync)
	}
	for l, d := range deltas {
		if err := d.Check(s.routing[l]); err != nil {
			return clientError{fmt.Errorf("serve: layer %d: %w", l, err)}
		}
	}
	for l, d := range deltas {
		d.Apply(s.routing[l])
	}
	return nil
}

// journalDeltaThreshold gates server-side delta journaling of a dense
// post: a sparse cell journals as a (device, diff) pair plus framing where
// a dense cell is one number, so a delta only saves bytes while the
// changed-cell count is well below the matrix size. 3x covers the framing
// overhead with margin; past it the dense record is smaller and replays
// faster.
func journalDeltaThreshold(cells, layers, devices, experts int) bool {
	return 3*cells < layers*devices*experts
}

// observe plans one epoch from the posted observation — dense or delta —
// journals the observation/decision pair, and pushes the decision to SSE
// subscribers. It serializes on the session: a client streaming epochs
// sees them planned in order, and journal/stream order is planning order.
// The journal records are appended only after a successful solve — a
// failed epoch poisons the session and is never replayed, so a restart
// recovers the last good state.
//
// Dense posts are journaled as sparse deltas against the retained
// observation whenever that is smaller (journalDeltaThreshold); the diff
// is computed before the copy overwrites the retained state, and only
// while journaling is live. Client deltas are journaled verbatim. Either
// way the journal reconstructs the same matrices on replay, which feeds
// each journaled observation back through this method.
func (s *session) observe(req ObserveRequest) (*ObserveResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return nil, fmt.Errorf("session %s failed and must be reopened: %w", s.id, s.failed)
	}
	isDelta := req.RoutingDelta != nil
	var journalDeltas []*trace.WireDelta
	if isDelta {
		if err := s.applyDeltaLocked(req.Epoch, req.RoutingDelta); err != nil {
			return nil, err
		}
		journalDeltas = req.RoutingDelta
	} else {
		if s.jw != nil && !s.jerr && s.haveBase {
			deltas := make([]*trace.WireDelta, len(req.Routing))
			cells := 0
			for l, rows := range req.Routing {
				deltas[l] = trace.WireDiff(s.routing[l], rows)
				cells += deltas[l].Cells()
			}
			if journalDeltaThreshold(cells, s.info.Layers, s.info.Devices, s.info.Experts) {
				journalDeltas = deltas
			}
		}
		s.applyDenseLocked(req.Routing)
	}
	start := time.Now()
	boundary, observation, err := s.core.PlanEpoch(s.routing)
	if err != nil {
		s.failed = err // see session.failed
		return nil, err
	}
	resp := &ObserveResponse{
		Session:      s.id,
		Epoch:        s.info.Epochs,
		Boundary:     boundary,
		Observation:  observation,
		Summary:      s.core.Summarize(),
		SolveSeconds: time.Since(start).Seconds(),
	}
	s.info.Epochs++
	s.haveBase = true
	if journalDeltas != nil {
		s.journalLocked(journal.KindObserveDelta, deltaObserveRecord{Epoch: resp.Epoch, Deltas: journalDeltas})
	} else {
		s.journalLocked(journal.KindObserve, observeRecord{Routing: req.Routing})
	}
	s.journalLocked(journal.KindDecision, decisionRecordOf(resp))
	s.maybeSnapshotLocked()
	s.publishLocked(eventDecision, resp)
	return resp, nil
}

// applyTopology applies a client's membership/degradation events. Events
// are dry-run validated against the session's live topology before
// anything mutates, so a bad request (a clientError) leaves the session
// untouched; a repair failure after validation poisons the session like a
// solve failure. Like observe, the event/decision pair is journaled after
// success, the decision pushed to subscribers, and replay feeds each
// journaled update back through this method.
func (s *session) applyTopology(req TopologyUpdateRequest) (*TopologyUpdateResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return nil, fmt.Errorf("session %s failed and must be reopened: %w", s.id, s.failed)
	}
	if len(req.Events) == 0 {
		return nil, clientError{fmt.Errorf("serve: topology update carries no events")}
	}
	events := make([]faults.Event, len(req.Events))
	for i, ev := range req.Events {
		ev.Epoch, ev.Iter = 0, 0 // effective immediately
		events[i] = ev
	}
	if err := faults.Schedule(events).Validate(s.core.Topo()); err != nil {
		return nil, clientError{err}
	}
	start := time.Now()
	decs, err := s.core.ApplyFaults(events)
	if err != nil {
		s.failed = err
		return nil, err
	}
	// The service has no executor to land the recovery charge on; drain it
	// into the response so the client can account for it.
	charge := 0.0
	for l := 0; l < s.info.Layers; l++ {
		charge += s.core.TakeFaultCharge(l)
	}
	s.info.AvailableDevices = s.core.Topo().NumAvailable()
	s.info.FaultEvents += len(events)
	// The cluster changed under the client: whatever observation it was
	// diffing against no longer describes the session's world, so the next
	// observe must be dense (a delta now gets a 409 resync).
	s.haveBase = false
	resp := &TopologyUpdateResponse{
		Session:               s.id,
		Decisions:             decs,
		AvailableDevices:      s.info.AvailableDevices,
		RecoveryChargeSeconds: charge,
		RecoverySeconds:       time.Since(start).Seconds(),
	}
	s.journalLocked(journal.KindTopology, topologyRecord{Events: events})
	s.journalLocked(journal.KindTopologyDecision, topologyDecisionRecordOf(resp))
	s.publishLocked(eventTopology, resp)
	return resp, nil
}

// touch refreshes the idle-eviction clock.
func (s *session) touch() {
	s.lastActive.Store(time.Now().UnixNano())
}

// idleSince reports how long the session has been idle at now. Lock-free:
// the janitor calls this while the session may be mid-solve.
func (s *session) idleSince(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, s.lastActive.Load()))
}

// snapshot returns the session's info under its lock.
func (s *session) snapshot() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.info
}

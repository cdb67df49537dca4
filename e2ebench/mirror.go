package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"laermoe/internal/executor"
	"laermoe/internal/journal"
	"laermoe/internal/model"
	"laermoe/internal/serve"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
	"laermoe/internal/training"
)

// The journal payloads, field for field the serve layer's own record
// types (internal/serve/journal.go), so a mirror journals the bytes the
// daemon journals. The traced run's record sizes and rewrite costs depend
// on that, so it byte-compares every mirror journal with the daemon's
// (sameJournals).
type openRecord struct {
	Seq  uint64            `json:"seq"`
	Spec serve.SessionSpec `json:"spec"`
}

type observeRecord struct {
	Routing [][][]int `json:"routing"`
}

type deltaObserveRecord struct {
	Epoch  int                `json:"epoch"`
	Deltas []*trace.WireDelta `json:"deltas"`
}

type baselineRecord struct {
	Routing [][][]int `json:"routing"`
}

type decisionRecord struct {
	Epoch       int                      `json:"epoch"`
	Boundary    []training.LayerDecision `json:"boundary"`
	Observation []training.LayerDecision `json:"observation"`
	Summary     training.EpochSummary    `json:"summary"`
}

type stateRecord struct {
	Epochs           int                    `json:"epochs"`
	Digest           string                 `json:"digest"`
	AvailableDevices int                    `json:"available_devices"`
	FaultEvents      int                    `json:"fault_events"`
	State            *training.PlannerState `json:"state"`
}

// snapshotEvery is the daemon's default compaction cadence
// (serve.Options.SnapshotEvery): every 16th observe rewrites the journal.
const snapshotEvery = 16

// mirror is one daemon session's in-process copy: an OnlinePlanner built
// from the same spec, fed the same observations through the same exported
// seams the daemon's observe handler calls — decode, apply onto retained
// matrices, plan, journal, compact, encode. It serves twice: as the
// reference every served decision is byte-compared against, and, with a
// tracer, as the stage-by-stage re-drive the per-layer metrics come from.
type mirror struct {
	id     string
	seq    uint64
	spec   serve.SessionSpec
	arch   *model.Config
	policy *training.PolicySpec
	core   *training.OnlinePlanner

	layers, devices, experts int
	routing                  []*trace.RoutingMatrix
	haveBase                 bool
	epochs                   int

	// store and jw journal the mirror like the daemon journals the session
	// (nil for a reference-only mirror); appended counts the bytes of the
	// last observe's records.
	store    *journal.Store
	jw       *journal.Writer
	appended int64
}

// newMirror builds the planning core exactly as serve.newSession does for
// the spec fields this benchmark sets (model, iterations per epoch, forced
// tokens per device, seed; everything else at its default).
func newMirror(id string, seq uint64, spec serve.SessionSpec, store *journal.Store) (*mirror, error) {
	name := spec.Model
	if name == "" {
		name = "mixtral-8x7b-e8k2"
	}
	arch, err := model.ByName(name)
	if err != nil {
		return nil, err
	}
	nodes, gpus := spec.Nodes, spec.GPUsPerNode
	if nodes == 0 {
		nodes = 4
	}
	if gpus == 0 {
		gpus = 8
	}
	name = spec.Policy
	if name == "" {
		name = string(training.ReplanWarm)
	}
	policy, err := training.ResolvePolicy(training.ReplanPolicy(name))
	if err != nil {
		return nil, err
	}
	core, err := training.NewOnlinePlanner(training.OnlineConfig{
		Policy:               policy.Name,
		Workload:             training.WorkloadTraining,
		Arch:                 arch,
		Topo:                 topology.New(nodes, gpus),
		IterationsPerEpoch:   spec.IterationsPerEpoch,
		ForceTokensPerDevice: spec.ForceTokensPerDevice,
		Seed:                 spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	m := &mirror{
		id: id, seq: seq, spec: spec, arch: arch, policy: policy, core: core,
		layers: core.Layers(), devices: core.Devices(), experts: core.Experts(),
		store: store,
	}
	if store != nil {
		if m.jw, err = store.Create(id); err != nil {
			return nil, err
		}
		if err := m.jw.Append(journal.KindOpen, openRecord{Seq: seq, Spec: spec}); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// observe runs one posted body through the daemon's seams. Spans go to tr
// (nil records nothing) under op's root span; journal.sync is recorded as
// a root of its own because the daemon's group commit keeps it off the
// acknowledgement path.
func (m *mirror) observe(body []byte, tr *tracer, op, root int) (*serve.ObserveResponse, error) {
	sp := tr.begin("serve.decode", op, root)
	var req serve.ObserveRequest
	err := json.Unmarshal(body, &req)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("decoding observation: %w", err)
	}

	sp = tr.begin("trace.apply", op, root)
	journalDeltas, err := m.apply(req)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("training.plan", op, root)
	boundary, observation, err := m.core.PlanEpoch(m.routing)
	var sum training.EpochSummary
	if err == nil {
		sum = m.core.Summarize()
	}
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("planning epoch %d: %w", m.epochs, err)
	}
	resp := &serve.ObserveResponse{
		Session: m.id, Epoch: m.epochs,
		Boundary: boundary, Observation: observation, Summary: sum,
	}
	m.epochs++
	m.haveBase = true

	if m.jw != nil {
		before := m.size(tr)
		sp = tr.begin("journal.append", op, root)
		err = m.appendRecords(req, journalDeltas, resp)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		m.appended = m.size(tr) - before
		if m.epochs%snapshotEvery == 0 {
			sp = tr.begin("journal.rewrite", op, root)
			err = m.compact()
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}

	sp = tr.begin("serve.encode", op, root)
	_, err = json.Marshal(resp)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	if m.jw != nil {
		sp = tr.begin("journal.sync", op, -1)
		err = m.jw.Sync()
		tr.end(sp)
	}
	return resp, err
}

// apply validates an observation and lands it in the retained matrices,
// like the daemon's validateObserve and applyDeltaLocked/applyDenseLocked:
// a delta is sequenced and checked on every layer before any is applied;
// a dense post is diffed against the retained base first when journaling,
// and the diff is returned when it journals smaller.
func (m *mirror) apply(req serve.ObserveRequest) ([]*trace.WireDelta, error) {
	dense, delta := req.Routing != nil, req.RoutingDelta != nil
	if dense == delta {
		return nil, fmt.Errorf("exactly one of routing and routing_delta must be set")
	}
	if delta {
		if len(req.RoutingDelta) != m.layers {
			return nil, fmt.Errorf("%d routing deltas for %d layers", len(req.RoutingDelta), m.layers)
		}
		for l, d := range req.RoutingDelta {
			if d == nil {
				return nil, fmt.Errorf("layer %d routing delta is null", l)
			}
			if err := d.Validate(m.devices, m.experts); err != nil {
				return nil, fmt.Errorf("layer %d: %w", l, err)
			}
		}
		if !m.haveBase || req.Epoch != m.epochs {
			return nil, fmt.Errorf("routing_delta for epoch %d cannot be sequenced at epoch %d", req.Epoch, m.epochs)
		}
		for l, d := range req.RoutingDelta {
			if err := d.Check(m.routing[l]); err != nil {
				return nil, fmt.Errorf("layer %d: %w", l, err)
			}
		}
		for l, d := range req.RoutingDelta {
			d.Apply(m.routing[l])
		}
		return req.RoutingDelta, nil
	}
	if len(req.Routing) != m.layers {
		return nil, fmt.Errorf("%d routing matrices for %d layers", len(req.Routing), m.layers)
	}
	for l, rows := range req.Routing {
		if len(rows) != m.devices {
			return nil, fmt.Errorf("layer %d has %d device rows, want %d", l, len(rows), m.devices)
		}
		for d, row := range rows {
			if len(row) != m.experts {
				return nil, fmt.Errorf("layer %d device %d has %d expert columns, want %d", l, d, len(row), m.experts)
			}
			for e, v := range row {
				if v < 0 {
					return nil, fmt.Errorf("layer %d device %d expert %d has negative load %d", l, d, e, v)
				}
			}
		}
	}
	var journalDeltas []*trace.WireDelta
	if m.jw != nil && m.haveBase {
		deltas := make([]*trace.WireDelta, m.layers)
		cells := 0
		for l, rows := range req.Routing {
			deltas[l] = trace.WireDiff(m.routing[l], rows)
			cells += deltas[l].Cells()
		}
		// serve.journalDeltaThreshold: a delta journals only while it is
		// well below the dense size.
		if 3*cells < m.layers*m.devices*m.experts {
			journalDeltas = deltas
		}
	}
	if m.routing == nil {
		m.routing = make([]*trace.RoutingMatrix, m.layers)
		for l := range m.routing {
			m.routing[l] = trace.NewRoutingMatrix(m.devices, m.experts)
		}
	}
	for l, layer := range req.Routing {
		for d, row := range layer {
			copy(m.routing[l].R[d], row)
		}
	}
	return journalDeltas, nil
}

// appendRecords appends the observe (or delta) record and the decision
// record, with the solve-path counters stripped from the journaled
// summary as the daemon strips them.
func (m *mirror) appendRecords(req serve.ObserveRequest, deltas []*trace.WireDelta, resp *serve.ObserveResponse) error {
	var err error
	if deltas != nil {
		err = m.jw.Append(journal.KindObserveDelta, deltaObserveRecord{Epoch: resp.Epoch, Deltas: deltas})
	} else {
		err = m.jw.Append(journal.KindObserve, observeRecord{Routing: req.Routing})
	}
	if err != nil {
		return err
	}
	sum := resp.Summary
	sum.IncrementalSolves, sum.FullSolves = 0, 0
	return m.jw.Append(journal.KindDecision, decisionRecord{
		Epoch: resp.Epoch, Boundary: resp.Boundary, Observation: resp.Observation, Summary: sum,
	})
}

// compact rewrites the journal to [open, state, baseline], the daemon's
// compaction.
func (m *mirror) compact() error {
	st, err := m.core.ExportState()
	if err != nil {
		return err
	}
	rows := make([][][]int, m.layers)
	for l, r := range m.routing {
		rows[l] = r.R
	}
	jw, err := m.store.Rewrite(m.id, []journal.RewriteRecord{
		{Kind: journal.KindOpen, Payload: openRecord{Seq: m.seq, Spec: m.spec}},
		{Kind: journal.KindState, Payload: stateRecord{
			Epochs:           m.epochs,
			Digest:           fmt.Sprintf("%016x", m.core.StateDigest()),
			AvailableDevices: m.devices,
			State:            st,
		}},
		{Kind: journal.KindBaseline, Payload: baselineRecord{Routing: rows}},
	})
	if err != nil {
		return err
	}
	m.jw = jw
	return nil
}

// size returns the journal file's length; only a traced run needs it.
func (m *mirror) size(tr *tracer) int64 {
	if tr == nil {
		return 0
	}
	fi, err := os.Stat(filepath.Join(m.store.Dir(), m.id+".jnl"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// stepTime simulates one training iteration of the retained observation
// on the layouts in force — what the served decisions are worth to the
// training job — and returns its simulated seconds.
func (m *mirror) stepTime(tr *tracer) (float64, error) {
	layouts := m.core.Layouts()
	denv := training.DispatchEnv{Topo: m.core.Topo(), Capacity: m.arch.ExpertCapacity}
	plans := make([]executor.LayerPlan, m.layers)
	sp := tr.begin("planner.dispatch", -1, -1)
	for l := range plans {
		denv.Routing, denv.Layout = m.routing[l], layouts[l]
		d, derr := m.policy.Dispatch(&denv)
		if derr != nil {
			tr.end(sp)
			return 0, derr
		}
		plans[l] = executor.LayerPlan{Layout: layouts[l], Dispatch: d}
	}
	tr.end(sp)
	sp = tr.begin("executor.iteration", -1, -1)
	it, err := executor.RunIteration(m.core.Setup().ExecConfig, plans)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	return it.Time, nil
}

package training

import (
	"fmt"

	"laermoe/internal/forecast"
	"laermoe/internal/planner"
	"laermoe/internal/topology"
)

// PlannerState is a serializable snapshot of an OnlinePlanner's decision
// state: everything a planner built from the same OnlineConfig needs to
// continue the decision sequence exactly where the exported one stopped.
// It is the payload behind laer-serve's journal compaction — a compacted
// journal replaces its replayed history with one of these, so restore
// fidelity is what keeps long-lived sessions byte-reproducible.
//
// The snapshot covers the digest-verified state (layouts, planned loads,
// fault accounting, topology mask) plus the predictor history the digest
// deliberately omits. Solver scratch and drift trackers are excluded:
// both are amortizations — the first post-restore solve takes the full
// path and re-anchors them, with decisions unchanged by construction.
type PlannerState struct {
	Layers  int `json:"layers"`
	Devices int `json:"devices"`
	Experts int `json:"experts"`

	// Topo is the planner's private topology state (membership mask,
	// stragglers, heterogeneity classes).
	Topo topology.State `json:"topo"`

	// Layouts holds each layer's layout in force as its raw replica-count
	// cells, Layouts[layer][expert][device].
	Layouts [][][]int `json:"layouts"`

	// PlannedLoads is each layer's reference load vector — the warm-start
	// threshold baseline (empty while a layer has never been replanned).
	PlannedLoads [][]float64 `json:"planned_loads"`

	// Pending fault accounting (see layerState.faultTime et al.);
	// normally all drained by the time a serve-layer snapshot runs, but
	// carried for exactness.
	FaultTime      []float64 `json:"fault_time,omitempty"`
	FaultMoves     []int     `json:"fault_moves,omitempty"`
	FaultRestored  []int     `json:"fault_restored,omitempty"`
	FaultEvents    int       `json:"fault_events,omitempty"`
	StaticRestored bool      `json:"static_restored,omitempty"`

	// Predictive-policy state: per-layer trust tracking and predictor
	// history (absent for reactive policies).
	LastErr    []float64        `json:"last_err,omitempty"`
	Streak     []int            `json:"streak,omitempty"`
	Predictors []forecast.State `json:"predictors,omitempty"`
}

// ExportState snapshots the planner's decision state. Export is cheap
// relative to a solve — O(layers·experts·devices) copies, no scoring.
func (p *OnlinePlanner) ExportState() (*PlannerState, error) {
	st := &PlannerState{
		Layers:  p.layers,
		Devices: p.n,
		Experts: p.arch.Experts,
		Topo:    p.topo.ExportState(),

		Layouts:      make([][][]int, p.layers),
		PlannedLoads: make([][]float64, p.layers),

		FaultTime:      make([]float64, p.layers),
		FaultMoves:     make([]int, p.layers),
		FaultRestored:  make([]int, p.layers),
		FaultEvents:    p.faultEvents,
		StaticRestored: p.staticRestored,
	}
	if p.pred {
		st.LastErr = make([]float64, p.layers)
		st.Streak = make([]int, p.layers)
		st.Predictors = make([]forecast.State, p.layers)
	}
	for l := range p.state {
		s := &p.state[l]
		lay := s.plan.Layout()
		cells := make([][]int, lay.E)
		for j := range cells {
			cells[j] = append([]int(nil), lay.A[j]...)
		}
		st.Layouts[l] = cells
		st.PlannedLoads[l] = append([]float64(nil), s.plan.PlannedLoads()...)
		st.FaultTime[l], st.FaultMoves[l], st.FaultRestored[l] = s.faultTime, s.faultMoves, s.faultRestored
		if p.pred {
			st.LastErr[l], st.Streak[l] = s.lastErr, s.streak
			ps, err := forecast.ExportState(s.predictor)
			if err != nil {
				return nil, err
			}
			st.Predictors[l] = ps
		}
	}
	return st, nil
}

// RestoreState replaces the planner's decision state with an exported
// snapshot. The planner must have been built from the same OnlineConfig
// as the exporter; shape mismatches (planned-load vectors included) are
// rejected before anything mutates. Drift trackers are unbound, not
// restored — the next solve per layer takes the full path and rebases
// them, which cannot move a decision.
func (p *OnlinePlanner) RestoreState(st *PlannerState) error {
	if st == nil {
		return fmt.Errorf("training: nil planner state")
	}
	if st.Layers != p.layers || st.Devices != p.n || st.Experts != p.arch.Experts {
		return fmt.Errorf("training: planner state is %d layers x %d devices x %d experts, planner is %dx%dx%d",
			st.Layers, st.Devices, st.Experts, p.layers, p.n, p.arch.Experts)
	}
	if len(st.Layouts) != p.layers || len(st.PlannedLoads) != p.layers {
		return fmt.Errorf("training: planner state carries %d layouts and %d load vectors for %d layers",
			len(st.Layouts), len(st.PlannedLoads), p.layers)
	}
	for _, vec := range []int{len(st.FaultTime), len(st.FaultMoves), len(st.FaultRestored)} {
		if vec != 0 && vec != p.layers {
			return fmt.Errorf("training: planner state fault accounting has %d entries for %d layers", vec, p.layers)
		}
	}
	if p.pred {
		if len(st.LastErr) != p.layers || len(st.Streak) != p.layers || len(st.Predictors) != p.layers {
			return fmt.Errorf("training: predictive planner state is incomplete (%d/%d/%d entries for %d layers)",
				len(st.LastErr), len(st.Streak), len(st.Predictors), p.layers)
		}
	}
	// Validate and materialize the layouts before touching planner state,
	// so a corrupt snapshot leaves the planner unchanged.
	layouts := make([]*planner.Layout, p.layers)
	for l, cells := range st.Layouts {
		if len(cells) != p.arch.Experts {
			return fmt.Errorf("training: layer %d layout has %d experts, want %d", l, len(cells), p.arch.Experts)
		}
		// A layer is planned for one load per expert, or none before its
		// first re-layout; any other length fails the next solve.
		if k := len(st.PlannedLoads[l]); k != 0 && k != p.arch.Experts {
			return fmt.Errorf("training: layer %d has %d planned loads, want 0 or %d", l, k, p.arch.Experts)
		}
		lay := planner.NewLayout(p.arch.Experts, p.n)
		for j, row := range cells {
			if len(row) != p.n {
				return fmt.Errorf("training: layer %d expert %d has %d device cells, want %d", l, j, len(row), p.n)
			}
			replicas := 0
			for d, v := range row {
				if v < 0 {
					return fmt.Errorf("training: layer %d expert %d device %d has negative replica count %d", l, j, d, v)
				}
				lay.A[j][d] = v
				replicas += v
			}
			// Routing splits an expert's tokens over its replicas; an
			// unplaced expert would divide by zero on the next plan.
			if replicas == 0 {
				return fmt.Errorf("training: layer %d expert %d has no replica", l, j)
			}
		}
		layouts[l] = lay
	}
	preds := make([]forecast.Predictor, 0, p.layers)
	if p.pred {
		for l := 0; l < p.layers; l++ {
			pr, err := forecast.New(p.cfg.Predictor, p.arch.Experts)
			if err != nil {
				return err
			}
			if err := forecast.RestoreState(pr, st.Predictors[l]); err != nil {
				return fmt.Errorf("training: layer %d predictor: %w", l, err)
			}
			preds = append(preds, pr)
		}
	}
	if err := p.topo.RestoreState(st.Topo); err != nil {
		return err
	}

	for l := range p.state {
		s := &p.state[l]
		s.plan.Restore(layouts[l], st.PlannedLoads[l])
		s.faultTime, s.faultMoves, s.faultRestored = 0, 0, 0
		if len(st.FaultTime) == p.layers {
			s.faultTime = st.FaultTime[l]
		}
		if len(st.FaultMoves) == p.layers {
			s.faultMoves = st.FaultMoves[l]
		}
		if len(st.FaultRestored) == p.layers {
			s.faultRestored = st.FaultRestored[l]
		}
		if p.pred {
			s.lastErr, s.streak, s.predictor = st.LastErr[l], st.Streak[l], preds[l]
		}
	}
	p.faultEvents = st.FaultEvents
	p.staticRestored = st.StaticRestored
	p.resetEpoch()
	return nil
}

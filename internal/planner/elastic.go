package planner

import (
	"fmt"

	"laermoe/internal/topology"
)

// RepairStats reports what a forced re-layout (Repair) did.
type RepairStats struct {
	// LostReplicas counts the replicas stripped off failed devices.
	LostReplicas int
	// Restored counts the experts whose every replica died: each must be
	// restored from the sharded optimizer checkpoint (one read per
	// expert) before any device can serve it again.
	Restored int
	// Moves counts the replicas re-placed onto devices that did not host
	// them, net of the checkpoint restores — on the FSEP substrate these
	// are re-gathered from surviving copies by the next All-to-All and
	// cost nothing extra; relocation substrates pay per move.
	Moves int
}

// Changed reports whether the repair had to alter the layout.
func (s RepairStats) Changed() bool { return s.LostReplicas > 0 }

// Repair is the planner's forced re-layout path for membership loss: given
// a layout whose owners partially vanished (the solver's topology has
// devices masked unavailable that prev still places replicas on), it keeps
// every fully intact expert in place, strips the dead replicas, and
// re-places the affected experts into the surviving slot budget using the
// warm solver's incremental machinery (priority-queue and even replica
// schemes over the freed slots, Alg. 1 greedy placement restricted to
// available devices).
//
// Graceful degradation: when the kept replicas leave too few slots for the
// affected experts, every expert is re-placed — the allocation then spills
// by reducing replica counts (each expert keeps at least one) before
// giving up; only a cluster whose surviving capacity cannot hold even one
// replica per expert is an error.
//
// loads are the per-expert loads the repaired layout is balanced for (the
// planner's last planned loads); an empty (or nil) vector balances for
// uniform loads. A layout with no replicas on dead devices is returned
// unchanged (zero stats), so joins and degradations never force a replan.
//
// Repair draws no randomness and shares the solver's scratch arenas, so
// it must not run concurrently with SolveWarm on the same solver.
func (s *Solver) Repair(prev *Layout, loads []float64) (*Layout, RepairStats, error) {
	var st RepairStats
	n := s.Topo.N()
	if prev.N != n {
		return nil, st, fmt.Errorf("planner: layout for %d devices, topology has %d", prev.N, n)
	}
	if s.Topo.NumAvailable() == n {
		return prev, st, nil
	}
	e := prev.E
	if avail := s.Topo.NumAvailable() * s.C; avail < e {
		return nil, st, fmt.Errorf("planner: %d experts exceed the %d surviving capacity slots (%d devices x %d)", e, avail, s.Topo.NumAvailable(), s.C)
	}
	w := &s.warm
	w.resize(e, n)
	moved := w.moved
	restored := 0
	for j := 0; j < e; j++ {
		lost, kept := 0, 0
		for d, v := range prev.A[j] {
			if v == 0 {
				continue
			}
			if s.Topo.Available(d) {
				kept += v
			} else {
				lost += v
			}
		}
		moved[j] = lost > 0
		st.LostReplicas += lost
		if lost > 0 && kept == 0 {
			restored++
		}
	}
	if st.LostReplicas == 0 {
		return prev, st, nil
	}
	if len(loads) == 0 {
		loads = w.loads
		for j := range loads {
			loads[j] = 1
		}
	} else if len(loads) != e {
		return nil, st, fmt.Errorf("planner: %d loads for %d experts", len(loads), e)
	}

	// When the surviving slots cannot hold one fresh replica per affected
	// expert on top of the kept placements, incrementalLayouts spills by
	// re-placing every expert, letting the allocation shrink replica
	// counts cluster-wide (each expert still gets at least one slot —
	// checked above).
	cands, err := s.incrementalLayouts(prev, loads, moved)
	if err != nil {
		return nil, st, err
	}
	if len(cands) == 0 {
		return nil, st, fmt.Errorf("planner: no repair candidates (both base replica schemes disabled)")
	}

	// Candidates are ranked by the balance they promise — the max
	// per-device planned load, each replica carrying its expert's average
	// — a routing-free proxy for the Eq. 2 compute term (there is no
	// observed routing matrix at a failure; the next epoch's solve
	// re-scores against live loads anyway). First candidate wins ties, so
	// the repair is deterministic.
	best, bestWorst := -1, 0.0
	for i, cand := range cands {
		dl := w.dl
		for d := range dl {
			dl[d] = 0
		}
		for j := 0; j < e; j++ {
			reps := 0
			for _, v := range cand.A[j] {
				reps += v
			}
			if reps == 0 {
				continue
			}
			avg := loads[j] / float64(reps)
			for d, v := range cand.A[j] {
				if v > 0 {
					dl[d] += avg * float64(v)
				}
			}
		}
		worst := 0.0
		for _, v := range dl {
			if v > worst {
				worst = v
			}
		}
		if best == -1 || worst < bestWorst {
			best, bestWorst = i, worst
		}
	}
	next := cands[best]
	for _, cand := range cands {
		if cand != next {
			s.Recycle(cand)
		}
	}

	// Moves are counted against the *surviving* placements: a replica the
	// greedy re-chose onto a device that already held it is not a move,
	// and each fully lost expert's first replica is a checkpoint restore,
	// not a re-gather off a survivor.
	placed := 0
	for j := 0; j < e; j++ {
		if !moved[j] {
			continue
		}
		for d, v := range next.A[j] {
			surv := prev.A[j][d]
			if !s.Topo.Available(d) {
				surv = 0
			}
			if delta := v - surv; delta > 0 {
				placed += delta
			}
		}
	}
	st.Restored = restored
	st.Moves = placed - restored
	if st.Moves < 0 {
		st.Moves = 0
	}
	return next, st, nil
}

// StaticRestoreLayout is the layout a static expert-parallel system ends
// up with after checkpoint-restoring a layer onto the surviving devices:
// replica slots spread evenly and load-obliviously (uniform loads) over
// the available capacity. It models the recovery endpoint of the
// no-re-layout baseline — the whole layer re-read from the checkpoint,
// placed without regard to the routing distribution.
func StaticRestoreLayout(e int, topo *topology.Topology, c int) (*Layout, error) {
	slots := topo.NumAvailable() * c
	if slots < e {
		return nil, fmt.Errorf("planner: %d experts exceed the %d surviving capacity slots", e, slots)
	}
	loads := make([]float64, e)
	for j := range loads {
		loads[j] = 1
	}
	reps, err := allocateEven(nil, loads, slots, nil)
	if err != nil {
		return nil, err
	}
	return ExpertRelocation(reps, loads, topo, c)
}

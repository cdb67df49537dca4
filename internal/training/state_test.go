package training

import (
	"encoding/json"
	"testing"

	"laermoe/internal/faults"
	"laermoe/internal/trace"
)

// epochFingerprint marshals the reproducible outcome of one epoch. The
// solve-path counters and planner wall-clock are telemetry about how the
// decisions were reached, not part of them — a restored planner's drift
// trackers start cold, so it takes full solves where the original went
// incremental, with identical decisions.
func epochFingerprint(t *testing.T, boundary, observation []LayerDecision, sum EpochSummary) string {
	t.Helper()
	sum.IncrementalSolves, sum.FullSolves = 0, 0
	b, err := json.Marshal(struct {
		B, O []LayerDecision
		S    EpochSummary
	}{boundary, observation, sum})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPlannerStateRoundTrip is the compaction acceptance property: a
// planner rebuilt from the same config and restored from an exported
// snapshot (through JSON, as the journal carries it) has the same state
// digest and continues the decision sequence byte-identically — across
// every policy, with a fault baked into the snapshotted state.
func TestPlannerStateRoundTrip(t *testing.T) {
	for _, policy := range ReplanPolicies() {
		cfg := onlineCfg(policy, trace.DriftMigration)
		orig, err := NewOnlinePlanner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		genCfg := trace.GeneratorConfig{
			Devices: orig.Devices(), Experts: orig.Experts(), Layers: orig.Layers(),
			TokensPerDevice: orig.Setup().TokensPerDev, TopK: 2, Seed: 29,
		}
		genA, err := ObservationGenerator(genCfg)
		if err != nil {
			t.Fatal(err)
		}
		var ra []*trace.RoutingMatrix
		for epoch := 0; epoch < 3; epoch++ {
			ra = genA.StepInto(ra)
			if _, _, err := orig.PlanEpoch(ra); err != nil {
				t.Fatal(err)
			}
		}
		// A node failure makes the snapshotted topology and fault
		// accounting non-trivial.
		if _, err := orig.ApplyFaults([]faults.Event{{Kind: faults.NodeFail, Node: 1}}); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < orig.Layers(); l++ {
			orig.TakeFaultCharge(l)
		}

		st, err := orig.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		decoded := &PlannerState{}
		if err := json.Unmarshal(raw, decoded); err != nil {
			t.Fatal(err)
		}
		restored, err := NewOnlinePlanner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.RestoreState(decoded); err != nil {
			t.Fatalf("%s: restore: %v", policy, err)
		}
		if got, want := restored.StateDigest(), orig.StateDigest(); got != want {
			t.Fatalf("%s: restored digest %016x, want %016x", policy, got, want)
		}

		// Both planners now see the same continued stream (two generators in
		// lockstep, as the planners fold dead rows into their inputs).
		genB, err := ObservationGenerator(genCfg)
		if err != nil {
			t.Fatal(err)
		}
		var rb []*trace.RoutingMatrix
		for epoch := 0; epoch < 3; epoch++ {
			rb = genB.StepInto(rb)
		}
		for epoch := 3; epoch < 6; epoch++ {
			ra = genA.StepInto(ra)
			rb = genB.StepInto(rb)
			for l := range ra {
				FoldLostRows(ra[l], orig.Topo())
				FoldLostRows(rb[l], restored.Topo())
			}
			ob, oo, err := orig.PlanEpoch(ra)
			if err != nil {
				t.Fatal(err)
			}
			nb, no, err := restored.PlanEpoch(rb)
			if err != nil {
				t.Fatal(err)
			}
			want := epochFingerprint(t, ob, oo, orig.Summarize())
			got := epochFingerprint(t, nb, no, restored.Summarize())
			if got != want {
				t.Fatalf("%s epoch %d: restored planner diverges\nrestored: %s\noriginal: %s", policy, epoch, got, want)
			}
			if gd, wd := restored.StateDigest(), orig.StateDigest(); gd != wd {
				t.Fatalf("%s epoch %d: digest %016x diverges from %016x", policy, epoch, gd, wd)
			}
		}
	}
}

// TestPlannerStateRestoreRejectsMismatch: a snapshot from a different
// cluster or model shape is rejected before anything mutates.
func TestPlannerStateRestoreRejectsMismatch(t *testing.T) {
	p, err := NewOnlinePlanner(onlineCfg(ReplanWarm, trace.DriftNone))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RestoreState(nil); err == nil {
		t.Error("nil state not rejected")
	}
	st, err := p.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	before := p.StateDigest()
	bad := *st
	bad.Devices++
	if err := p.RestoreState(&bad); err == nil {
		t.Error("device-count mismatch not rejected")
	}
	bad = *st
	bad.Layouts = st.Layouts[:1]
	if err := p.RestoreState(&bad); err == nil {
		t.Error("truncated layouts not rejected")
	}
	// An expert with no replica anywhere: accepted, it would make the next
	// PlanEpoch divide by zero inside a worker and kill the process.
	bad = *st
	bad.Layouts = append([][][]int(nil), st.Layouts...)
	bad.Layouts[0] = append([][]int(nil), st.Layouts[0]...)
	bad.Layouts[0][0] = make([]int, len(st.Layouts[0][0]))
	if err := p.RestoreState(&bad); err == nil {
		t.Error("unplaced expert not rejected")
	}
	if p.StateDigest() != before {
		t.Error("rejected restore mutated the planner")
	}
}

// TestPlannerStateRestoreRejectsPlannedLoadLength: a planned-load vector
// that is neither empty nor one load per expert is rejected before
// anything mutates. Accepted, it restored cleanly and then failed the next
// PlanEpoch ("2 previous loads for 8 experts"), poisoning a served session.
func TestPlannerStateRestoreRejectsPlannedLoadLength(t *testing.T) {
	p, err := NewOnlinePlanner(onlineCfg(ReplanWarm, trace.DriftMigration))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := ObservationGenerator(trace.GeneratorConfig{
		Devices: p.Devices(), Experts: p.Experts(), Layers: p.Layers(),
		TokensPerDevice: p.Setup().TokensPerDev, TopK: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	routing := gen.StepInto(nil)
	if _, _, err := p.PlanEpoch(routing); err != nil {
		t.Fatal(err)
	}
	st, err := p.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	before := p.StateDigest()
	bad := *st
	bad.PlannedLoads = append([][]float64(nil), st.PlannedLoads...)
	bad.PlannedLoads[0] = []float64{1, 2}
	if err := p.RestoreState(&bad); err == nil {
		t.Fatal("a 2-entry planned-load vector for 8 experts was restored")
	}
	if p.StateDigest() != before {
		t.Fatal("rejected restore mutated the planner")
	}
	if _, _, err := p.PlanEpoch(gen.StepInto(routing)); err != nil {
		t.Fatalf("planning after the rejected restore: %v", err)
	}
}

package training

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"laermoe/internal/faults"
	"laermoe/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/planner_state.pin")

// TestPlannerStatePin pins what a journaled session persists and checks
// across versions: for every policy, steady and with a node failure at
// epoch 3, each of seven PlanEpoch epochs records the StateDigest, a
// SHA-256 of the ExportState JSON and a SHA-256 of the epoch's decisions
// (fault, boundary, observation) plus its summary. A hundredth of the
// relocation charge per moved replica keeps every charge field live and
// lets the keep-versus-migrate score go both ways. A change to the digest
// or to the state JSON passes every behavioural test, yet fails the
// replay of every compacted journal already on disk; this catches it.
// Regenerate with
//
//	go test ./internal/training -run TestPlannerStatePin -update
func TestPlannerStatePin(t *testing.T) {
	schedules := []struct {
		name string
		at   map[int][]faults.Event
	}{
		{"steady", nil},
		{"nodefail", map[int][]faults.Event{3: {{Kind: faults.NodeFail, Node: 1}}}},
	}
	var buf bytes.Buffer
	for _, policy := range ReplanPolicies() {
		sawBoundary := false
		for _, sched := range schedules {
			cfg := onlineCfg(policy, trace.DriftMigration)
			cfg.MigrationCostPerReplica = RelocationCostPerReplica(cfg.Arch, cfg.Topo) / 100
			p, err := NewOnlinePlanner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := ObservationGenerator(trace.GeneratorConfig{
				Devices: p.Devices(), Experts: p.Experts(), Layers: p.Layers(),
				TokensPerDevice: p.Setup().TokensPerDev, TopK: 2, Seed: 17,
			})
			if err != nil {
				t.Fatal(err)
			}
			var routing []*trace.RoutingMatrix
			for epoch := 0; epoch < 7; epoch++ {
				if epoch > 0 {
					if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftMigration, Rate: 0.1}); err != nil {
						t.Fatal(err)
					}
				}
				routing = gen.StepInto(routing)
				fault, err := p.ApplyFaults(sched.at[epoch])
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range routing {
					FoldLostRows(r, p.Topo())
				}
				boundary, observation, err := p.PlanEpoch(routing)
				if err != nil {
					t.Fatal(err)
				}
				if len(boundary) > 0 {
					sawBoundary = true
				}
				decisions, err := json.Marshal(struct {
					F, B, O []LayerDecision
					S       EpochSummary
				}{fault, boundary, observation, p.Summarize()})
				if err != nil {
					t.Fatal(err)
				}
				st, err := p.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				state, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&buf, "%s %s %d digest %016x state %x decisions %x boundary %d\n",
					policy, sched.name, epoch, p.StateDigest(), sha256.Sum256(state), sha256.Sum256(decisions), len(boundary))
			}
		}
		if policy == ReplanPredictive && !sawBoundary {
			t.Fatalf("%s: no boundary ever acted, so the pin covers no predictive boundary decision", policy)
		}
	}
	path := filepath.Join("testdata", "planner_state.pin")
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
		t.Fatalf("planner state drifted from %s.\n--- want ---\n%s\n--- got ---\n%s", path, want, buf.Bytes())
	}
}

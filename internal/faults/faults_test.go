package faults

import (
	"strings"
	"testing"

	"laermoe/internal/topology"
)

func TestParseRoundTrip(t *testing.T) {
	in := "2:fail:1,3:degrade:17:degraded,4:join:1,4.2:fail:2"
	sched, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 4 {
		t.Fatalf("Parse yielded %d events, want 4", len(sched))
	}
	want := Schedule{
		{Epoch: 2, Kind: NodeFail, Node: 1},
		{Epoch: 3, Kind: Degrade, Device: 17, Class: "degraded"},
		{Epoch: 4, Kind: NodeJoin, Node: 1},
		{Epoch: 4, Iter: 2, Kind: NodeFail, Node: 2},
	}
	for i, ev := range sched {
		if ev != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
	back, err := Parse(sched.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != sched.String() {
		t.Errorf("String round trip: %q != %q", back.String(), sched.String())
	}
	if err := sched.Validate(topology.Default()); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestParseSortsByFiringPoint(t *testing.T) {
	sched, err := Parse("4:join:1,2:fail:1")
	if err != nil {
		t.Fatal(err)
	}
	if sched[0].Epoch != 2 || sched[1].Epoch != 4 {
		t.Errorf("schedule not sorted: %v", sched)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"nonsense",
		"2:fail",           // missing arg
		"x:fail:1",         // bad epoch
		"-1:fail:1",        // negative epoch
		"2.x:fail:1",       // bad iteration
		"2:explode:1",      // unknown kind
		"2:fail:x",         // bad node
		"2:degrade:1",      // degrade missing class
		"2:degrade:x:slow", // bad device
		"2:fail:1:extra",   // fail with too many fields
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
	if sched, err := Parse("  "); err != nil || sched != nil {
		t.Errorf("Parse(blank) = %v, %v; want empty schedule", sched, err)
	}
}

func TestValidateDryRuns(t *testing.T) {
	topo := topology.New(4, 8)
	cases := []struct {
		name string
		in   string
	}{
		{"double fail", "1:fail:1,2:fail:1"},
		{"join alive node", "1:join:2"},
		{"node out of range", "1:fail:9"},
		{"unknown class", "1:degrade:3:warp-speed"},
		{"degrade failed device", "1:fail:1,2:degrade:8:degraded"},
	}
	for _, tc := range cases {
		sched, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := sched.Validate(topo); err == nil {
			t.Errorf("%s: Validate accepted %q", tc.name, tc.in)
		}
	}
	// Validate must not mutate the topology it dry-runs against.
	sched, _ := Parse("1:fail:1")
	if err := sched.Validate(topo); err != nil {
		t.Fatal(err)
	}
	if topo.NumAvailable() != 32 {
		t.Error("Validate mutated the topology")
	}
}

func TestValidateRunHorizon(t *testing.T) {
	topo := topology.New(4, 8)
	for in, want := range map[string]string{
		"1:fail:1,2:join:1": "",
		"3:fail:1":          "reaches epoch 3",
		"1.4:fail:1":        "fires at iteration 4",
		"1:fail:9":          "out of range",
	} {
		sched, err := Parse(in)
		if err != nil {
			t.Fatal(err)
		}
		err = sched.ValidateRun(topo, 3, 4)
		switch {
		case want == "" && err != nil:
			t.Errorf("%q: valid schedule rejected: %v", in, err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("%q: error %v, want one naming %q", in, err, want)
		}
	}
}

func TestAt(t *testing.T) {
	sched, err := Parse("2:fail:1,2:degrade:0:degraded,2.3:fail:2,4:join:1")
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.At(2, 0); len(got) != 2 {
		t.Errorf("At(2,0) = %v, want 2 events", got)
	}
	if got := sched.At(2, 3); len(got) != 1 || got[0].Node != 2 {
		t.Errorf("At(2,3) = %v, want the mid-epoch fail", got)
	}
	if got := sched.At(3, 0); got != nil {
		t.Errorf("At(3,0) = %v, want none", got)
	}
	if got := sched.MaxEpoch(); got != 4 {
		t.Errorf("MaxEpoch() = %d, want 4", got)
	}
	if got := (Schedule{}).MaxEpoch(); got != -1 {
		t.Errorf("empty MaxEpoch() = %d, want -1", got)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := SynthConfig{Epochs: 12, Nodes: 4, FailProb: 0.5, Seed: 7}
	a, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed diverged: %q vs %q", a, b)
	}
	if len(a) == 0 {
		t.Fatal("FailProb 0.5 over 12 epochs produced no events")
	}
	// A synthesized schedule is always applicable to its cluster.
	if err := a.Validate(topology.New(4, 8)); err != nil {
		t.Errorf("synthesized schedule invalid: %v", err)
	}
	if _, err := Synthesize(SynthConfig{Epochs: 0, Nodes: 4}); err == nil {
		t.Error("Synthesize accepted 0 epochs")
	}
}

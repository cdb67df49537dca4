package executor

import (
	"testing"

	"laermoe/internal/model"
	"laermoe/internal/planner"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// tinyArch is a small MoE config so executor tests stay fast.
var tinyArch = &model.Config{
	Name: "tiny", Layers: 2, HiddenDim: 1024, Intermediate: 2048,
	Heads: 8, KVHeads: 8, HeadDim: 128, VocabSize: 1000,
	Experts: 4, TopK: 2, ExpertCapacity: 2,
}

func tinyConfig(topo *topology.Topology) Config {
	return Config{
		Arch: tinyArch, Topo: topo, Paradigm: ParadigmFSEP,
		TokensPerDevice: 1024, MicroBatches: 1, ContextLen: 1024,
		Comm: AllCommOpts(),
	}
}

func tinyPlans(t *testing.T, topo *topology.Topology, seed int64) []LayerPlan {
	t.Helper()
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices: topo.N(), Experts: tinyArch.Experts, Layers: tinyArch.Layers,
		TokensPerDevice: 1024, TopK: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := planner.StaticEP(tinyArch.Experts, topo.N(), tinyArch.ExpertCapacity)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]LayerPlan, tinyArch.Layers)
	for l, r := range gen.Step() {
		d, err := planner.EPRouting(r, tinyArch.ExpertCapacity)
		if err != nil {
			t.Fatal(err)
		}
		plans[l] = LayerPlan{Layout: layout, Dispatch: d}
	}
	return plans
}

func TestRunIterationProducesTimeline(t *testing.T) {
	topo := topology.New(2, 4)
	it, err := RunIteration(tinyConfig(topo), tinyPlans(t, topo, 1))
	if err != nil {
		t.Fatal(err)
	}
	if it.Time <= 0 {
		t.Error("iteration time must be positive")
	}
	if len(it.PerLayerImbalance) != tinyArch.Layers {
		t.Errorf("per-layer imbalance has %d entries, want %d", len(it.PerLayerImbalance), tinyArch.Layers)
	}
	bd := it.Breakdown
	if bd.Expert <= 0 || bd.A2A <= 0 || bd.Attention <= 0 {
		t.Errorf("breakdown missing components: %+v", bd)
	}
}

// TestBalancedFasterThanImbalanced: forcing balanced routing must shorten
// the iteration (the Fig. 1b comparison).
func TestBalancedFasterThanImbalanced(t *testing.T) {
	topo := topology.New(2, 4)
	cfg := tinyConfig(topo)
	cfg.Paradigm = ParadigmFSDPEP
	imbalanced, err := RunIteration(cfg, tinyPlans(t, topo, 2))
	if err != nil {
		t.Fatal(err)
	}
	layout, _ := planner.StaticEP(tinyArch.Experts, topo.N(), tinyArch.ExpertCapacity)
	bal := trace.Balanced(topo.N(), tinyArch.Experts, 1024, 2)
	d, err := planner.EPRouting(bal, tinyArch.ExpertCapacity)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]LayerPlan, tinyArch.Layers)
	for l := range plans {
		plans[l] = LayerPlan{Layout: layout, Dispatch: d}
	}
	balanced, err := RunIteration(cfg, plans)
	if err != nil {
		t.Fatal(err)
	}
	if balanced.Time >= imbalanced.Time {
		t.Errorf("balanced iteration (%.4f) not faster than imbalanced (%.4f)", balanced.Time, imbalanced.Time)
	}
	if balanced.Breakdown.A2AShare() >= imbalanced.Breakdown.A2AShare() {
		t.Errorf("balanced a2a share (%.3f) not below imbalanced (%.3f)",
			balanced.Breakdown.A2AShare(), imbalanced.Breakdown.A2AShare())
	}
}

// TestCommOptimizationsHelp: the Fig. 5 optimizations must not slow the
// iteration down, and disabling all of them must cost something (Fig. 12
// no_comm_opt).
func TestCommOptimizationsHelp(t *testing.T) {
	topo := topology.New(2, 4)
	plans := tinyPlans(t, topo, 3)
	withOpts := tinyConfig(topo)
	withOpts.TokensPerDevice = 4096
	noOpts := withOpts
	noOpts.Comm = CommOpts{}
	a, err := RunIteration(withOpts, plans)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunIteration(noOpts, plans)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time >= b.Time {
		t.Errorf("optimized iteration (%.4f) not faster than unoptimized (%.4f)", a.Time, b.Time)
	}
}

// TestCommOptsAreIndividuallyMonotonic: enabling each optimization on top
// of the previous ones never hurts.
func TestCommOptsAreIndividuallyMonotonic(t *testing.T) {
	topo := topology.New(2, 4)
	plans := tinyPlans(t, topo, 4)
	base := tinyConfig(topo)
	base.TokensPerDevice = 4096
	ladder := []CommOpts{
		{},
		{RelaxedPrefetch: true},
		{RelaxedPrefetch: true, ScheduledPrefetch: true},
		{RelaxedPrefetch: true, ScheduledPrefetch: true, DelayedGradSync: true},
	}
	prev := -1.0
	for i, opts := range ladder {
		cfg := base
		cfg.Comm = opts
		it, err := RunIteration(cfg, plans)
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 && it.Time > prev*1.001 {
			t.Errorf("step %d (%+v) slower than previous: %.4f > %.4f", i, opts, it.Time, prev)
		}
		prev = it.Time
	}
}

// TestMegatronParadigmHasNoPrefetch: resident parameters mean zero
// prefetch time and nonzero TP communication when TP > 1.
func TestMegatronParadigmHasNoPrefetch(t *testing.T) {
	topo := topology.New(2, 4)
	cfg := tinyConfig(topo)
	cfg.Paradigm = ParadigmResident
	cfg.TPDegree = 4
	it, err := RunIteration(cfg, tinyPlans(t, topo, 5))
	if err != nil {
		t.Fatal(err)
	}
	if it.Breakdown.Prefetch != 0 {
		t.Errorf("resident paradigm has prefetch time %g", it.Breakdown.Prefetch)
	}
	if it.Breakdown.TPComm <= 0 {
		t.Error("TP=4 should incur TP communication")
	}
}

func TestFSDPEPParadigmPrefetches(t *testing.T) {
	topo := topology.New(2, 4)
	cfg := tinyConfig(topo)
	cfg.Paradigm = ParadigmFSDPEP
	it, err := RunIteration(cfg, tinyPlans(t, topo, 6))
	if err != nil {
		t.Fatal(err)
	}
	if it.Breakdown.Prefetch <= 0 {
		t.Error("FSDP+EP paradigm should show prefetch activity")
	}
	if it.Breakdown.GradSync <= 0 {
		t.Error("FSDP+EP paradigm should show gradient reshard activity")
	}
}

// TestMicroBatchesScaleTime: beyond the first micro-batch (which carries
// the cold-start prefetch), each additional micro-batch adds the same
// marginal time.
func TestMicroBatchesScaleTime(t *testing.T) {
	topo := topology.New(2, 4)
	plans := tinyPlans(t, topo, 7)
	times := make([]float64, 4)
	for mb := 1; mb <= 3; mb++ {
		cfg := tinyConfig(topo)
		cfg.MicroBatches = mb
		it, err := RunIteration(cfg, plans)
		if err != nil {
			t.Fatal(err)
		}
		times[mb] = it.Time
	}
	d12 := times[2] - times[1]
	d23 := times[3] - times[2]
	if d12 <= 0 || d23 <= 0 {
		t.Fatalf("micro-batches did not add time: %v", times[1:])
	}
	ratio := d23 / d12
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("marginal micro-batch costs differ: +%.4f then +%.4f (ratio %.2f)", d12, d23, ratio)
	}
}

// TestExtraRelayoutTimeCharged: explicit migration cost lands on the
// iteration's critical path.
func TestExtraRelayoutTimeCharged(t *testing.T) {
	topo := topology.New(2, 4)
	plans := tinyPlans(t, topo, 8)
	base, err := RunIteration(tinyConfig(topo), plans)
	if err != nil {
		t.Fatal(err)
	}
	plans[0].ExtraRelayoutTime = 0.5
	charged, err := RunIteration(tinyConfig(topo), plans)
	if err != nil {
		t.Fatal(err)
	}
	if charged.Time < base.Time+0.45 {
		t.Errorf("relayout cost not charged: %.4f vs %.4f", charged.Time, base.Time)
	}
}

// TestStragglerInflatesIteration: a slow device stretches the whole
// iteration (collectives wait for it).
func TestStragglerInflatesIteration(t *testing.T) {
	topo := topology.New(2, 4)
	plans := tinyPlans(t, topo, 9)
	base, err := RunIteration(tinyConfig(topo), plans)
	if err != nil {
		t.Fatal(err)
	}
	slow := topology.New(2, 4)
	if err := slow.SetSlowdown(3, 2.0); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(slow)
	it, err := RunIteration(cfg, plans)
	if err != nil {
		t.Fatal(err)
	}
	if it.Time <= base.Time {
		t.Errorf("straggler did not inflate iteration: %.4f vs %.4f", it.Time, base.Time)
	}
}

func TestConfigValidation(t *testing.T) {
	topo := topology.New(2, 4)
	bad := tinyConfig(topo)
	bad.TPDegree = 3 // does not divide 8
	if _, err := RunIteration(bad, tinyPlans(t, topo, 10)); err == nil {
		t.Error("invalid TP degree accepted")
	}
	short := tinyConfig(topo)
	if _, err := RunIteration(short, tinyPlans(t, topo, 11)[:1]); err == nil {
		t.Error("wrong layer-plan count accepted")
	}
	neg := tinyConfig(topo)
	neg.TokensPerDevice = 0
	if _, err := RunIteration(neg, tinyPlans(t, topo, 12)); err == nil {
		t.Error("zero tokens accepted")
	}
	// A Dispatch literal has no loads: priced, every expert would take the
	// previous layer's compute time.
	literal := tinyPlans(t, topo, 13)
	d := literal[1].Dispatch
	literal[1].Dispatch = &planner.Dispatch{N: d.N, E: d.E, Assignments: d.Assignments}
	if _, err := RunIteration(tinyConfig(topo), literal); err == nil {
		t.Error("dispatch without loads accepted")
	}
}

func TestParadigmString(t *testing.T) {
	for _, p := range []Paradigm{ParadigmFSEP, ParadigmFSDPEP, ParadigmResident} {
		if p.String() == "" {
			t.Errorf("paradigm %d has empty name", p)
		}
	}
}

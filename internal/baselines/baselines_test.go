package baselines

import (
	"slices"
	"testing"

	"laermoe/internal/model"
	"laermoe/internal/planner"
	"laermoe/internal/stats"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

const (
	testE = 8
	testC = 2
)

func testTopo() *topology.Topology { return topology.New(2, 4) } // 8 devices

func testParams() planner.CostParams {
	return planner.CostParams{TokenBytes: 8192, ExpertFLOPsPerToken: 352e6, FLOPS: 140e12}
}

func routingStep(t *testing.T, gen *trace.Generator) []*trace.RoutingMatrix {
	t.Helper()
	return gen.Step()
}

func newGen(t *testing.T, layers int, seed int64) *trace.Generator {
	t.Helper()
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices: 8, Experts: testE, Layers: layers, TokensPerDevice: 2048, TopK: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func imbalanceOf(d *planner.Dispatch) float64 {
	f := make([]float64, d.N)
	for i, v := range d.Loads() {
		f[i] = float64(v)
	}
	return stats.Imbalance(f)
}

func TestStaticEPPlans(t *testing.T) {
	s, err := NewStaticEP(testE, 8, testC)
	if err != nil {
		t.Fatal(err)
	}
	gen := newGen(t, 2, 1)
	routing := routingStep(t, gen)
	plans, err := s.Plan(routing)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("%d plans, want 2", len(plans))
	}
	for l, p := range plans {
		if err := p.Dispatch.Validate(routing[l], p.Layout); err != nil {
			t.Errorf("layer %d: %v", l, err)
		}
		if p.ExtraRelayoutTime != 0 {
			t.Error("static EP should have no re-layout cost")
		}
	}
	// The layout never changes across iterations.
	plans2, err := s.Plan(routingStep(t, gen))
	if err != nil {
		t.Fatal(err)
	}
	if !plans[0].Layout.Equal(plans2[0].Layout) {
		t.Error("static layout changed between iterations")
	}
	if s.PlannerTime() != 0 {
		t.Error("static EP reports planner time")
	}
}

// TestFlexMoEAdapts: over iterations of a persistent hotspot, FlexMoE's
// imbalance must drop well below static EP's, without ever re-solving
// globally.
func TestFlexMoEAdapts(t *testing.T) {
	topo := testTopo()
	f, err := NewFlexMoE(topo, 1, testE, testC, testParams(), 10e-3)
	if err != nil {
		t.Fatal(err)
	}
	gen := newGen(t, 1, 3)
	var first, last float64
	for it := 0; it < 12; it++ {
		routing := routingStep(t, gen)
		plans, err := f.Plan(routing)
		if err != nil {
			t.Fatal(err)
		}
		imb := imbalanceOf(plans[0].Dispatch)
		if it == 0 {
			first = imb
		}
		last = imb
	}
	if last >= first {
		t.Errorf("FlexMoE did not adapt: imbalance %.3f -> %.3f", first, last)
	}
	if last > 1.6 {
		t.Errorf("FlexMoE end imbalance %.3f too high", last)
	}
}

// TestFlexMoEPenaltyBlocksMoves: with an enormous penalty, FlexMoE keeps
// the static layout forever (the conservatism the paper exploits).
func TestFlexMoEPenaltyBlocksMoves(t *testing.T) {
	topo := testTopo()
	f, err := NewFlexMoE(topo, 1, testE, testC, testParams(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	gen := newGen(t, 1, 4)
	staticLayout, _ := planner.StaticEP(testE, 8, testC)
	for it := 0; it < 5; it++ {
		plans, err := f.Plan(routingStep(t, gen))
		if err != nil {
			t.Fatal(err)
		}
		if !plans[0].Layout.Equal(staticLayout) {
			t.Fatal("penalized FlexMoE changed the layout")
		}
	}
}

// TestFlexMoELayoutsStayValid: every layout keeps its capacity, and every
// traffic-form dispatch carries the pair counts and loads of a valid
// LiteRouting of the same (routing, layout).
func TestFlexMoELayoutsStayValid(t *testing.T) {
	topo := testTopo()
	f, err := NewFlexMoE(topo, 2, testE, testC, testParams(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	gen := newGen(t, 2, 5)
	for it := 0; it < 8; it++ {
		routing := routingStep(t, gen)
		plans, err := f.Plan(routing)
		if err != nil {
			t.Fatal(err)
		}
		for l, p := range plans {
			if err := p.Layout.Validate(testC, false); err != nil {
				t.Fatalf("iter %d layer %d: %v", it, l, err)
			}
			lite := planner.LiteRouting(routing[l], p.Layout, topo)
			if err := lite.Validate(routing[l], p.Layout); err != nil {
				t.Fatalf("iter %d layer %d: %v", it, l, err)
			}
			if !slices.Equal(p.Dispatch.PairTokens(nil), lite.PairTokens(nil)) || !slices.Equal(p.Dispatch.Loads(), lite.Loads()) {
				t.Fatalf("iter %d layer %d: the dispatch does not carry its lite routing's traffic", it, l)
			}
		}
	}
}

// TestSmartMoERelocatesOnInterval: layout changes only at the configured
// interval and pays migration cost when it does.
func TestSmartMoERelocatesOnInterval(t *testing.T) {
	topo := testTopo()
	s, err := NewSmartMoE(topo, 1, testE, testC, 3, 5e-3)
	if err != nil {
		t.Fatal(err)
	}
	gen := newGen(t, 1, 6)
	var layouts []*planner.Layout
	var extras []float64
	for it := 0; it < 7; it++ {
		routing := routingStep(t, gen)
		plans, err := s.Plan(routing)
		if err != nil {
			t.Fatal(err)
		}
		if err := plans[0].Dispatch.Validate(routing[0], plans[0].Layout); err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		layouts = append(layouts, plans[0].Layout)
		extras = append(extras, plans[0].ExtraRelayoutTime)
	}
	// Iterations 1,2 keep iteration 0's layout; iteration 3 may change it.
	if !layouts[1].Equal(layouts[0]) || !layouts[2].Equal(layouts[0]) {
		t.Error("SmartMoE changed layout between intervals")
	}
	for it, extra := range extras {
		if it%3 != 0 && extra != 0 {
			t.Errorf("iteration %d charged migration cost %.4f outside interval", it, extra)
		}
	}
	changed := false
	for it := 3; it < 7 && !changed; it++ {
		changed = !layouts[it].Equal(layouts[0])
	}
	if !changed {
		t.Error("SmartMoE never relocated despite skewed load")
	}
}

// TestFasterMoEShadowsHotExperts: a clearly hot expert becomes local
// everywhere (no cross-device tokens for it) and incurs shadowing cost.
func TestFasterMoEShadowsHotExperts(t *testing.T) {
	topo := testTopo()
	arch := tinyArch()
	f, err := NewFasterMoE(topo, arch, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	r := trace.NewRoutingMatrix(8, testE)
	for i := 0; i < 8; i++ {
		r.R[i][0] = 1000 // expert 0 extremely hot
		for j := 1; j < testE; j++ {
			r.R[i][j] = 10
		}
	}
	plans, err := f.Plan([]*trace.RoutingMatrix{r})
	if err != nil {
		t.Fatal(err)
	}
	p := plans[0]
	if p.ExtraRelayoutTime <= 0 {
		t.Error("shadowing should cost broadcast + all-reduce time")
	}
	for _, a := range p.Dispatch.Assignments {
		if a.Expert == 0 && a.Src != a.Dst {
			t.Errorf("hot expert token left its device: %+v", a)
		}
	}
	for d := 0; d < 8; d++ {
		if p.Layout.A[0][d] == 0 {
			t.Errorf("hot expert not shadowed on device %d", d)
		}
	}
	if err := p.Dispatch.Validate(r, p.Layout); err != nil {
		t.Fatal(err)
	}
}

func TestFasterMoENoShadowsWhenBalanced(t *testing.T) {
	topo := testTopo()
	f, err := NewFasterMoE(topo, tinyArch(), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	bal := trace.Balanced(8, testE, 2048, 2)
	plans, err := f.Plan([]*trace.RoutingMatrix{bal})
	if err != nil {
		t.Fatal(err)
	}
	if plans[0].ExtraRelayoutTime != 0 {
		t.Error("balanced routing should trigger no shadowing cost")
	}
}

// TestLAERSchedulerLagsByOneIteration: dispatch at iteration t uses the
// layout solved from history, not from iteration t's own routing.
func TestLAERSchedulerLagsByOneIteration(t *testing.T) {
	topo := testTopo()
	p, err := planner.New(topo, 1, testE, testC, testParams(), planner.DefaultSolverOptions(), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	s := NewLAER(p)
	gen := newGen(t, 1, 7)
	staticLayout, _ := planner.StaticEP(testE, 8, testC)

	routing := routingStep(t, gen)
	plans, err := s.Plan(routing)
	if err != nil {
		t.Fatal(err)
	}
	if !plans[0].Layout.Equal(staticLayout) {
		t.Error("first iteration should dispatch against the initial static layout")
	}
	if s.PlannerTime() <= 0 {
		t.Error("LAER should report planner time")
	}
	plans2, err := s.Plan(routingStep(t, gen))
	if err != nil {
		t.Fatal(err)
	}
	if plans2[0].Layout.Equal(staticLayout) {
		t.Error("second iteration should use the solved layout")
	}
	if err := plans2[0].Layout.Validate(testC, false); err != nil {
		t.Fatal(err)
	}
	// Mismatched layer count must error.
	if _, err := s.Plan(newGen(t, 3, 8).Step()); err == nil {
		t.Error("layer-count mismatch accepted")
	}
}

// TestBalancedOracle: perfectly balanced loads by construction.
func TestBalancedOracle(t *testing.T) {
	topo := testTopo()
	s := &BalancedOracle{Topo: topo, C: testC}
	gen := newGen(t, 1, 9)
	plans, err := s.Plan(routingStep(t, gen))
	if err != nil {
		t.Fatal(err)
	}
	if imb := imbalanceOf(plans[0].Dispatch); imb > 1.01 {
		t.Errorf("oracle imbalance %.4f, want ~1", imb)
	}
}

// tinyArch returns a model config matching the test expert shape.
func tinyArch() *model.Config {
	return &model.Config{
		Name: "tiny", Layers: 1, HiddenDim: 1024, Intermediate: 2048,
		Heads: 8, KVHeads: 8, HeadDim: 128, VocabSize: 1000,
		Experts: testE, TopK: 2, ExpertCapacity: testC,
	}
}

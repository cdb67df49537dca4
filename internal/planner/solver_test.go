package planner

import (
	"slices"
	"testing"

	"laermoe/internal/stats"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

func testParams() CostParams {
	return CostParams{TokenBytes: 8192, ExpertFLOPsPerToken: 352e6, FLOPS: 140e12}
}

func skewedMatrix(n, e, tokens int, seed int64) *trace.RoutingMatrix {
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices: n, Experts: e, Layers: 1, TokensPerDevice: tokens, TopK: 2, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	return gen.Step()[0]
}

func loadsOf(d *Dispatch) []float64 {
	out := make([]float64, d.N)
	for i, v := range d.Loads() {
		out[i] = float64(v)
	}
	return out
}

// TestSolverBeatsStaticEP: on skewed routing the tuner's layout must have
// materially lower cost and imbalance than the static baseline.
func TestSolverBeatsStaticEP(t *testing.T) {
	topo := topology.Default()
	s := NewSolver(topo, 2, testParams(), DefaultSolverOptions())
	for seed := int64(0); seed < 5; seed++ {
		r := skewedMatrix(32, 8, 16384, seed)
		sol, err := s.Solve(r)
		if err != nil {
			t.Fatal(err)
		}
		staticDispatch, err := EPRouting(r, 2)
		if err != nil {
			t.Fatal(err)
		}
		staticCost := TimeCost(staticDispatch, topo, testParams())
		if sol.Cost() >= staticCost {
			t.Errorf("seed %d: solver cost %.4f >= static %.4f", seed, sol.Cost(), staticCost)
		}
		solverImb := stats.Imbalance(loadsOf(LiteTraffic(r, sol.Layout, topo)))
		staticImb := stats.Imbalance(loadsOf(staticDispatch))
		if solverImb >= staticImb {
			t.Errorf("seed %d: solver imbalance %.3f >= static %.3f", seed, solverImb, staticImb)
		}
		if solverImb > 1.45 {
			t.Errorf("seed %d: solver imbalance %.3f too high", seed, solverImb)
		}
	}
}

// TestSolverSatisfiesConstraints: Eq. 3 (capacity) and Eq. 4 (conservation)
// hold for every solution.
func TestSolverSatisfiesConstraints(t *testing.T) {
	topo := topology.Default()
	s := NewSolver(topo, 2, testParams(), DefaultSolverOptions())
	r := skewedMatrix(32, 8, 16384, 42)
	sol, err := s.Solve(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Layout.Validate(2, false); err != nil {
		t.Errorf("layout constraint violated: %v", err)
	}
	if err := LiteRouting(r, sol.Layout, topo).Validate(r, sol.Layout); err != nil {
		t.Errorf("dispatch constraint violated: %v", err)
	}
}

// TestSolverDeterministic: same seed, same solution.
func TestSolverDeterministic(t *testing.T) {
	topo := topology.Default()
	r := skewedMatrix(32, 8, 16384, 1)
	a := NewSolver(topo, 2, testParams(), SolverOptions{Epsilon: 6, Seed: 5})
	b := NewSolver(topo, 2, testParams(), SolverOptions{Epsilon: 6, Seed: 5})
	sa, err := a.Solve(r)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Solve(r)
	if err != nil {
		t.Fatal(err)
	}
	if !sa.Layout.Equal(sb.Layout) {
		t.Error("same-seed solver runs produced different layouts")
	}
}

// TestSolverAblationOptions: the Fig. 12 ablations — with only one base
// scheme the solver still works but candidate diversity shrinks; disabling
// both fails.
func TestSolverAblationOptions(t *testing.T) {
	topo := topology.Default()
	r := skewedMatrix(32, 8, 16384, 9)
	pqOnly := NewSolver(topo, 2, testParams(), SolverOptions{Epsilon: 1, DisableEven: true})
	evenOnly := NewSolver(topo, 2, testParams(), SolverOptions{Epsilon: 1, DisablePQ: true})
	both := NewSolver(topo, 2, testParams(), DefaultSolverOptions())
	sPQ, err := pqOnly.Solve(r)
	if err != nil {
		t.Fatal(err)
	}
	sEven, err := evenOnly.Solve(r)
	if err != nil {
		t.Fatal(err)
	}
	sBoth, err := both.Solve(r)
	if err != nil {
		t.Fatal(err)
	}
	if sBoth.Cost() > sPQ.Cost()+1e-12 || sBoth.Cost() > sEven.Cost()+1e-12 {
		t.Errorf("combined scheme (%.4f) worse than single schemes (pq %.4f, even %.4f)",
			sBoth.Cost(), sPQ.Cost(), sEven.Cost())
	}
	neither := NewSolver(topo, 2, testParams(), SolverOptions{Epsilon: 2, DisablePQ: true, DisableEven: true})
	if _, err := neither.Solve(r); err == nil {
		t.Error("solver with no base schemes should fail")
	}
}

// TestSolverEpsilonExpandsCandidates: requesting more candidates evaluates
// more and never hurts the best cost.
func TestSolverEpsilonExpandsCandidates(t *testing.T) {
	topo := topology.Default()
	r := skewedMatrix(32, 8, 16384, 2)
	small := NewSolver(topo, 2, testParams(), SolverOptions{Epsilon: 2, Seed: 3})
	big := NewSolver(topo, 2, testParams(), SolverOptions{Epsilon: 10, Seed: 3})
	sSmall, err := small.Solve(r)
	if err != nil {
		t.Fatal(err)
	}
	sBig, err := big.Solve(r)
	if err != nil {
		t.Fatal(err)
	}
	if sBig.Candidates != 10 || sSmall.Candidates != 2 {
		t.Errorf("candidate counts = %d/%d, want 10/2", sBig.Candidates, sSmall.Candidates)
	}
	if sBig.Cost() > sSmall.Cost()+1e-12 {
		t.Errorf("more candidates worsened cost: %.4f vs %.4f", sBig.Cost(), sSmall.Cost())
	}
}

// TestCostModelComponents: comm cost charges only cross-device traffic and
// scales with bandwidth class; compute cost tracks the max-loaded device
// and the checkpoint factor.
func TestCostModelComponents(t *testing.T) {
	topo := topology.Default()
	p := testParams()
	local := NewDispatch(32, 1, []Assignment{{Src: 0, Expert: 0, Dst: 0, Tokens: 100}})
	if got := CommCost(local, topo, p); got != 0 {
		t.Errorf("local dispatch comm cost = %g, want 0", got)
	}
	intra := NewDispatch(32, 1, []Assignment{{Src: 0, Expert: 0, Dst: 1, Tokens: 100}})
	inter := NewDispatch(32, 1, []Assignment{{Src: 0, Expert: 0, Dst: 8, Tokens: 100}})
	if CommCost(intra, topo, p) >= CommCost(inter, topo, p) {
		t.Error("intra-node traffic should cost less than inter-node")
	}
	comp := CompCost(intra, topo, p)
	want := 3 * 100 * p.ExpertFLOPsPerToken / p.FLOPS
	if comp != want {
		t.Errorf("comp cost = %g, want %g", comp, want)
	}
	p.Ckpt = true
	if got := CompCost(intra, topo, p); got != want/3*4 {
		t.Errorf("ckpt comp cost = %g, want %g", got, want/3*4)
	}
	if total := TimeCost(inter, topo, p); total != CommCost(inter, topo, p)+CompCost(inter, topo, p) {
		t.Error("TimeCost != CommCost + CompCost")
	}
}

// TestPlannerAsyncWrapper: the layout in force lags observations by one
// iteration, and dispatches stay valid throughout: the traffic-form
// dispatch carries the pair counts and loads of a valid LiteRouting of
// the same (routing, layout).
func TestPlannerAsyncWrapper(t *testing.T) {
	topo := topology.Default()
	p, err := New(topo, 2, 8, 2, testParams(), DefaultSolverOptions(), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	static, err := StaticEP(8, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Layout(0).Equal(static) {
		t.Error("initial layout should be static EP")
	}
	r := skewedMatrix(32, 8, 16384, 5)
	d := p.Dispatch(0, r)
	lite := LiteRouting(r, static, topo)
	if err := lite.Validate(r, static); err != nil {
		t.Fatalf("initial dispatch invalid: %v", err)
	}
	if !slices.Equal(d.PairTokens(nil), lite.PairTokens(nil)) || !slices.Equal(d.Loads(), lite.Loads()) {
		t.Fatal("the planner's dispatch does not carry its lite routing's traffic")
	}
	sol, err := p.Observe(0, r)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Layout(0).Equal(sol.Layout) {
		t.Error("Observe did not install the solved layout")
	}
	if p.Layout(1).Equal(sol.Layout) && !sol.Layout.Equal(static) {
		t.Error("layer 1 layout changed by layer 0 observation")
	}
	// Layer bounds.
	if _, err := p.Observe(5, r); err == nil {
		t.Error("out-of-range layer accepted")
	}
	if _, err := New(topo, 0, 8, 2, testParams(), DefaultSolverOptions(), 0.6); err == nil {
		t.Error("zero layers accepted")
	}
	if _, err := New(topo, 2, 8, 2, testParams(), DefaultSolverOptions(), 1.5); err == nil {
		t.Error("alpha > 1 accepted")
	}
}

// TestPlannerAdaptsToShiftedLoad: after observing a persistent shift, the
// planned layout gives the hot expert more replicas.
func TestPlannerAdaptsToShiftedLoad(t *testing.T) {
	topo := topology.Default()
	p, err := New(topo, 1, 8, 2, testParams(), DefaultSolverOptions(), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	r := trace.NewRoutingMatrix(32, 8)
	for i := 0; i < 32; i++ {
		r.R[i][0] = 700 // expert 0 very hot
		for j := 1; j < 8; j++ {
			r.R[i][j] = 100
		}
	}
	for it := 0; it < 3; it++ {
		if _, err := p.Observe(0, r); err != nil {
			t.Fatal(err)
		}
	}
	layout := p.Layout(0)
	if layout.Replicas(0) <= layout.Replicas(1) {
		t.Errorf("hot expert replicas %d not above cold %d", layout.Replicas(0), layout.Replicas(1))
	}
	d := p.Dispatch(0, r)
	imb := stats.Imbalance(loadsOf(d))
	if imb > 1.3 {
		t.Errorf("post-adaptation imbalance %.3f, want <= 1.3", imb)
	}
}

// TestIncrementalEvalMatchesMaterialized: the streaming candidate score
// must equal TimeCost over the materialized dispatch bit for bit.
func TestIncrementalEvalMatchesMaterialized(t *testing.T) {
	topo := topology.New(8, 8)
	for seed := int64(0); seed < 4; seed++ {
		r := skewedMatrix(64, 8, 8192, seed)
		reps, err := ReplicaAllocation(r.ExpertLoads(), 64, 2)
		if err != nil {
			t.Fatal(err)
		}
		layout, err := ExpertRelocation(reps, r.ExpertLoads(), topo, 2)
		if err != nil {
			t.Fatal(err)
		}
		sc := routePool.Get().(*routeScratch)
		got := evalLayoutCost(r, layout, topo, testParams(), sc)
		routePool.Put(sc)
		want := TimeCost(LiteRouting(r, layout, topo), topo, testParams())
		if got != want {
			t.Errorf("seed %d: incremental cost %g, materialized %g", seed, got, want)
		}
	}
}

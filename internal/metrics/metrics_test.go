package metrics

import (
	"math"
	"testing"

	"laermoe/internal/sim"
)

func TestBreakdownFromResult(t *testing.T) {
	e := sim.NewEngine(2)
	for d := 0; d < 2; d++ {
		e.Compute(d, sim.StreamCompute, sim.CatAttention, 1)
		e.Compute(d, sim.StreamCompute, sim.CatExpert, 2)
	}
	e.Collective([]int{0, 1}, sim.StreamA2A, sim.CatA2A, 0.5, nil)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	bd := FromResult(res)
	if bd.Attention != 1 || bd.Expert != 2 {
		t.Errorf("breakdown = %+v", bd)
	}
	if bd.A2A <= 0 {
		t.Error("a2a missing from breakdown")
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	a := Breakdown{Attention: 1, Expert: 2, A2A: 3, Prefetch: 4}
	b := Breakdown{Attention: 10, Expert: 20, A2A: 30, TPComm: 5}
	sum := a.Add(b)
	if sum.Attention != 11 || sum.Expert != 22 || sum.A2A != 33 || sum.Prefetch != 4 || sum.TPComm != 5 {
		t.Errorf("Add = %+v", sum)
	}
	half := sum.Scale(0.5)
	if half.Attention != 5.5 || half.A2A != 16.5 {
		t.Errorf("Scale = %+v", half)
	}
	if got := a.Others(); got != 5 { // attention + prefetch
		t.Errorf("Others = %g, want 5", got)
	}
	if got := a.Sum(); got != 10 {
		t.Errorf("Sum = %g, want 10", got)
	}
	if got := a.A2AShare(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("A2AShare = %g, want 0.3", got)
	}
	if (Breakdown{}).A2AShare() != 0 {
		t.Error("empty breakdown A2AShare should be 0")
	}
	if a.String() == "" {
		t.Error("empty breakdown string")
	}
}

func TestRunAggregates(t *testing.T) {
	run := &Run{
		System:      "laer",
		Model:       "tiny",
		GlobalBatch: 1000,
		Warmup:      1,
		Iterations: []Iteration{
			{Time: 100, Breakdown: Breakdown{A2A: 50}, PerLayerImbalance: []float64{9, 9}},
			{Time: 2, Breakdown: Breakdown{A2A: 1}, PerLayerImbalance: []float64{1, 3}},
			{Time: 4, Breakdown: Breakdown{A2A: 3}, PerLayerImbalance: []float64{3, 5}},
		},
	}
	if got := run.MeanIterationTime(); got != 3 {
		t.Errorf("MeanIterationTime = %g, want 3 (warmup excluded)", got)
	}
	if got := run.Throughput(); math.Abs(got-1000.0/3) > 1e-9 {
		t.Errorf("Throughput = %g, want %g", got, 1000.0/3)
	}
	if got := run.MeanBreakdown().A2A; got != 2 {
		t.Errorf("MeanBreakdown.A2A = %g, want 2", got)
	}
	imb := run.MeanPerLayerImbalance()
	if len(imb) != 2 || imb[0] != 2 || imb[1] != 4 {
		t.Errorf("MeanPerLayerImbalance = %v, want [2 4]", imb)
	}
}

func TestRunWarmupLargerThanIterations(t *testing.T) {
	run := &Run{
		GlobalBatch: 10,
		Warmup:      5,
		Iterations:  []Iteration{{Time: 2}},
	}
	if got := run.MeanIterationTime(); got != 2 {
		t.Errorf("over-long warmup should fall back to all iterations, got %g", got)
	}
}

func TestEmptyRun(t *testing.T) {
	run := &Run{}
	if run.Throughput() != 0 {
		t.Error("empty run throughput should be 0")
	}
	if run.MeanPerLayerImbalance() != nil {
		t.Error("empty run imbalance should be nil")
	}
}

package sim

import "testing"

// buildIterationGraph enqueues a training-iteration-shaped graph (the same
// shape the benchmark uses) onto a fresh or reset engine.
func buildIterationGraph(e *Engine, devices, layers int) {
	all := make([]int, devices)
	for i := range all {
		all[i] = i
	}
	prev := make([]TaskID, devices)
	for i := range prev {
		prev[i] = NoTask
	}
	for l := 0; l < layers; l++ {
		attn := make([]TaskID, devices)
		for d := 0; d < devices; d++ {
			attn[d] = e.Compute(d, StreamCompute, CatAttention, 1e-3, prev[d])
		}
		a2a := e.Collective(all, StreamA2A, CatA2A, 5e-4, attn)
		for d := 0; d < devices; d++ {
			ex := e.Compute(d, StreamCompute, CatExpert, 2e-3, a2a[d])
			e.Compute(d, StreamPrefetch, CatPrefetch, 1e-3, a2a[d])
			prev[d] = ex
		}
	}
}

// TestResetReproducesFreshEngine: a reused engine must schedule the same
// graph to exactly the same timeline as a fresh one, repeatedly.
func TestResetReproducesFreshEngine(t *testing.T) {
	fresh := NewEngine(8)
	buildIterationGraph(fresh, 8, 6)
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}

	reused := NewEngine(8)
	for round := 0; round < 3; round++ {
		reused.Reset(8)
		buildIterationGraph(reused, 8, 6)
		got, err := reused.Run()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got.Makespan() != want.Makespan() {
			t.Fatalf("round %d: makespan %g, want %g", round, got.Makespan(), want.Makespan())
		}
		for c := Category(0); c < NumCategories; c++ {
			if got.MeanCategoryTime(c) != want.MeanCategoryTime(c) {
				t.Fatalf("round %d: category %v time %g, want %g",
					round, c, got.MeanCategoryTime(c), want.MeanCategoryTime(c))
			}
		}
	}
}

// TestResetChangesDeviceCount: reuse across different cluster sizes.
func TestResetChangesDeviceCount(t *testing.T) {
	e := NewEngine(4)
	buildIterationGraph(e, 4, 3)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{2, 16, 8} {
		e.Reset(n)
		buildIterationGraph(e, n, 3)
		got, err := e.Run()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		fresh := NewEngine(n)
		buildIterationGraph(fresh, n, 3)
		want, err := fresh.Run()
		if err != nil {
			t.Fatalf("n=%d fresh: %v", n, err)
		}
		if got.Makespan() != want.Makespan() {
			t.Fatalf("n=%d: makespan %g, want %g", n, got.Makespan(), want.Makespan())
		}
	}
}

package executor

import (
	"runtime"
	"runtime/debug"
	"testing"

	"laermoe/internal/model"
	"laermoe/internal/planner"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// iterationFixture is one training iteration at the shape of the online
// benchmark's SimulateOnline call: synthetic-e512 on 16x8 devices (every
// expert holds exactly one of the N*C slots), 512 tokens per device in one
// micro-batch, lite-routed over the static layout into the traffic form,
// as the training workload routes its layers.
func iterationFixture(tb testing.TB) (Config, []LayerPlan) {
	tb.Helper()
	arch := model.SyntheticE512
	topo := topology.New(16, 8)
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices: topo.N(), Experts: arch.Experts, Layers: arch.Layers,
		TokensPerDevice: 512, TopK: arch.TopK, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	layout, err := planner.StaticEP(arch.Experts, topo.N(), arch.ExpertCapacity)
	if err != nil {
		tb.Fatal(err)
	}
	plans := make([]LayerPlan, arch.Layers)
	for l, r := range gen.Step() {
		plans[l] = LayerPlan{Layout: layout, Dispatch: planner.LiteTraffic(r, layout, topo)}
	}
	cfg := Config{
		Arch: arch, Topo: topo, Paradigm: ParadigmFSEP,
		TokensPerDevice: 512, MicroBatches: 1, Comm: AllCommOpts(),
	}
	return cfg, plans
}

// BenchmarkRunIteration re-simulates the iterationFixture iteration.
func BenchmarkRunIteration(b *testing.B) {
	cfg, plans := iterationFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunIteration(cfg, plans); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunIterationAllocs pins the objects and bytes one steady-state
// RunIteration allocates at BenchmarkRunIteration's shape: the
// per-iteration builder state, one member-id slice per collective and the
// metrics. Nothing on the iteration path formats a string, and a
// traffic-form layer is priced from its own pair counts, with no N x N
// scratch.
func TestRunIterationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	cfg, plans := iterationFixture(t)
	// Warm the engine pool so the pin measures the steady state, and hold
	// the collector off so no GC empties the pool mid-measurement. One P,
	// as in testing.AllocsPerRun, keeps the pooled engine on hand.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := RunIteration(cfg, plans); err != nil {
		t.Fatal(err)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := RunIteration(cfg, plans); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d allocs, %d bytes per RunIteration", allocs, bytes)
	if allocs > 120 {
		t.Errorf("%d allocs per RunIteration, want at most 120", allocs)
	}
	if bytes > 128<<10 {
		t.Errorf("%d bytes per RunIteration, want at most %d", bytes, 128<<10)
	}
}

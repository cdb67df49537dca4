package executor

import (
	"testing"

	"laermoe/internal/model"
	"laermoe/internal/planner"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// BenchmarkRunIteration re-simulates one training iteration at the shape
// of the online benchmark's SimulateOnline call: synthetic-e512 on 16x8
// devices (every expert holds exactly one of the N*C slots), 512 tokens
// per device in one micro-batch, lite-routed over the static layout.
func BenchmarkRunIteration(b *testing.B) {
	arch := model.SyntheticE512
	topo := topology.New(16, 8)
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices: topo.N(), Experts: arch.Experts, Layers: arch.Layers,
		TokensPerDevice: 512, TopK: arch.TopK, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	layout, err := planner.StaticEP(arch.Experts, topo.N(), arch.ExpertCapacity)
	if err != nil {
		b.Fatal(err)
	}
	plans := make([]LayerPlan, arch.Layers)
	for l, r := range gen.Step() {
		plans[l] = LayerPlan{Layout: layout, Dispatch: planner.LiteRouting(r, layout, topo)}
	}
	cfg := Config{
		Arch: arch, Topo: topo, Paradigm: ParadigmFSEP,
		TokensPerDevice: 512, MicroBatches: 1, Comm: AllCommOpts(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunIteration(cfg, plans); err != nil {
			b.Fatal(err)
		}
	}
}

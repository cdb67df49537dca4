package trace

import "testing"

// BenchmarkGeneratorStep measures one iteration of synthetic routing at
// the paper's evaluation scale (32 devices, 32 layers).
func BenchmarkGeneratorStep(b *testing.B) {
	// Parallelism pinned to 1 so the number measures the synthesis code,
	// not the host's core count (and stays comparable across machines in
	// benchmarks/baseline.txt).
	g, err := NewGenerator(GeneratorConfig{
		Devices: 32, Experts: 8, Layers: 32, TokensPerDevice: 16384, TopK: 2,
		Parallelism: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Step()
	}
}

// BenchmarkGeneratorStepLarge measures trace synthesis at the production
// shape of the scale experiment (512 devices, 2048 experts) — the regime
// where apportion's remainder handling and per-step allocation dominate.
func BenchmarkGeneratorStepLarge(b *testing.B) {
	g, err := NewGenerator(GeneratorConfig{
		Devices: 512, Experts: 2048, Layers: 1, TokensPerDevice: 2048, TopK: 2,
		Parallelism: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Step()
	}
}

// BenchmarkGeneratorStepInto is BenchmarkGeneratorStepLarge on the
// zero-allocation reuse path the online engine drives.
func BenchmarkGeneratorStepInto(b *testing.B) {
	g, err := NewGenerator(GeneratorConfig{
		Devices: 512, Experts: 2048, Layers: 1, TokensPerDevice: 2048, TopK: 2,
		Parallelism: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var bufs []*RoutingMatrix
	bufs = g.StepInto(bufs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bufs = g.StepInto(bufs)
	}
}

// BenchmarkApportion measures largest-remainder rounding alone at E=4096,
// where the remainder selection is the asymptotic bottleneck.
func BenchmarkApportion(b *testing.B) {
	const e = 4096
	p := make([]float64, e)
	sum := 0.0
	for j := range p {
		p[j] = 1 + float64(j%17)
		sum += p[j]
	}
	for j := range p {
		p[j] /= sum
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Apportion(p, 8192)
	}
}

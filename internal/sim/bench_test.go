package sim

import "testing"

// BenchmarkEngineRun measures the discrete-event engine on a graph shaped
// like one training iteration: 32 devices, 32 layers of compute +
// collective alternation across four streams.
func BenchmarkEngineRun(b *testing.B) {
	build := func() *Engine {
		const devices, layers = 32, 32
		e := NewEngine(devices)
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
		return e
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := build()
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineReuse measures the same iteration graph rebuilt on one
// reset engine — the executor's steady state, where the task arena, dep
// arena, queues and scheduling scratch all retain capacity.
func BenchmarkEngineReuse(b *testing.B) {
	const devices, layers = 32, 32
	e := NewEngine(devices)
	all := make([]int, devices)
	for i := range all {
		all[i] = i
	}
	prev := make([]TaskID, devices)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(devices)
		for d := range prev {
			prev[d] = NoTask
		}
		for l := 0; l < layers; l++ {
			for d := 0; d < devices; d++ {
				prev[d] = e.Compute(d, StreamCompute, CatAttention, 1e-3, prev[d])
			}
			a2a := e.Collective(all, StreamA2A, CatA2A, 5e-4, prev)
			for d := 0; d < devices; d++ {
				ex := e.Compute(d, StreamCompute, CatExpert, 2e-3, a2a[d])
				e.Compute(d, StreamPrefetch, CatPrefetch, 1e-3, a2a[d])
				prev[d] = ex
			}
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

package forecast

import (
	"fmt"
	"math/rand"
	"testing"

	"laermoe/internal/trace"
)

// BenchmarkPredictorObserve is the alloc-regression gate for the predictor
// hot path: one Observe + ForecastInto per drift window per layer must be
// 0 allocs/op in steady state, matching the simulator's hot-path
// discipline (CI runs this with -benchmem).
func BenchmarkPredictorObserve(b *testing.B) {
	const experts = 64
	rng := rand.New(rand.NewSource(1))
	loads := make([]float64, experts)
	for j := range loads {
		loads[j] = float64(rng.Intn(4096))
	}
	dst := make([]float64, experts)
	for _, k := range Kinds() {
		b.Run(string(k), func(b *testing.B) {
			p, err := New(k, experts)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				p.Observe(loads)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Observe(loads)
				p.ForecastInto(dst)
			}
		})
	}
}

// BenchmarkSynthRouting sizes the boundary-solve preprocessing into a
// reused matrix (not a zero-alloc path: the proportions and the
// apportioned row are still allocated per call).
func BenchmarkSynthRouting(b *testing.B) {
	const experts, devices = 64, 32
	loads := make([]float64, experts)
	for j := range loads {
		loads[j] = float64((j*37)%experts) + 1
	}
	m := trace.NewRoutingMatrix(devices, experts)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := SynthRoutingInto(m, loads, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleForecast() {
	p, _ := New(KindTrend, 2)
	p.Observe([]float64{10, 40})
	p.Observe([]float64{12, 37})
	p.Observe([]float64{14, 34})
	fmt.Println(Forecast(p))
	// Output: [16 31]
}

package planner

import (
	"reflect"
	"testing"
	"testing/quick"

	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// TestLeastLoadedRoutingConservation: the dispatch must route exactly
// R[i][j] tokens for every (device, expert) and only to replica hosts,
// like every other router.
func TestLeastLoadedRoutingConservation(t *testing.T) {
	topo := topology.New(2, 2)
	layout := NewLayout(3, 4)
	layout.A[0][0], layout.A[0][2] = 1, 1
	layout.A[1][1] = 1
	layout.A[2][3] = 1
	r := matrixFrom([][]int{
		{10, 5, 3},
		{7, 0, 2},
		{4, 9, 1},
		{8, 8, 8},
	})
	d := LeastLoadedRouting(r, layout, topo)
	if err := d.Validate(r, layout); err != nil {
		t.Fatalf("least-loaded routing violates conservation: %v", err)
	}
}

// TestLeastLoadedRoutingBalances: the stateful water-fill sees the loads
// earlier blocks created, so overlapping replica sets end flatter than
// LiteRouting's locality-first per-block split. Expert 0 lives on devices
// {0,1}, expert 1 on {1,2}: Lite piles 100 tokens on the shared device 1;
// the least-loaded router shifts expert 1's tokens toward the idle
// device 2.
func TestLeastLoadedRoutingBalances(t *testing.T) {
	topo := topology.New(1, 4)
	layout := NewLayout(2, 4)
	layout.A[0][0], layout.A[0][1] = 1, 1
	layout.A[1][1], layout.A[1][2] = 1, 1
	r := matrixFrom([][]int{
		{100, 100},
		{0, 0},
		{0, 0},
		{0, 0},
	})
	llep := LeastLoadedRouting(r, layout, topo)
	if err := llep.Validate(r, layout); err != nil {
		t.Fatal(err)
	}
	lite := LiteRouting(r, layout, topo)
	maxOf := func(loads []int) int {
		m := 0
		for _, v := range loads {
			if v > m {
				m = v
			}
		}
		return m
	}
	llepMax, liteMax := maxOf(llep.Loads()), maxOf(lite.Loads())
	if llepMax >= liteMax {
		t.Errorf("least-loaded max load %d not below lite's %d on overlapping replica sets", llepMax, liteMax)
	}
	if got := llep.Loads(); got[1] != 75 || got[2] != 75 {
		t.Errorf("water-fill loads = %v, want the shared and idle device leveled at 75", got)
	}
}

// llepTestMatrix draws one generated routing matrix for the randomized
// least-loaded tests.
func llepTestMatrix(t *testing.T, n, e, tokens int) *trace.RoutingMatrix {
	t.Helper()
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices: n, Experts: e, Layers: 1, TokensPerDevice: tokens, TopK: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return gen.Step()[0]
}

// TestLeastLoadedRoutingDeterminism: identical inputs dispatch to the
// identical assignment list (ties break toward the lower device index).
func TestLeastLoadedRoutingDeterminism(t *testing.T) {
	topo := topology.New(2, 4)
	r := llepTestMatrix(t, 8, 4, 512)
	layout := NewLayout(4, 8)
	for j := 0; j < 4; j++ {
		layout.A[j][j], layout.A[j][(j+3)%8] = 1, 1
	}
	a := LeastLoadedRouting(r, layout, topo)
	b := LeastLoadedRouting(r, layout, topo)
	if !reflect.DeepEqual(a.Assignments, b.Assignments) {
		t.Error("least-loaded dispatch is not deterministic")
	}
}

// TestLeastLoadedRoutingLoadsCache: the load vector the water-fill hands
// the Dispatch must equal the loads recomputed from its assignments.
func TestLeastLoadedRoutingLoadsCache(t *testing.T) {
	topo := topology.New(2, 4)
	r := llepTestMatrix(t, 8, 4, 512)
	layout := NewLayout(4, 8)
	for j := 0; j < 4; j++ {
		layout.A[j][2*j], layout.A[j][2*j+1] = 1, 1
	}
	d := LeastLoadedRouting(r, layout, topo)
	manual := make([]int, 8)
	for _, a := range d.Assignments {
		manual[a.Dst] += a.Tokens
	}
	if !reflect.DeepEqual(d.Loads(), manual) {
		t.Errorf("cached loads %v != recomputed %v", d.Loads(), manual)
	}
}

// TestLeastLoadedRoutingPropertyConservation: conservation over random
// matrices and layouts, mirroring LiteRouting's property test.
func TestLeastLoadedRoutingPropertyConservation(t *testing.T) {
	topo := topology.New(2, 4)
	f := func(cells []uint8, layoutBits uint32) bool {
		const n, e = 8, 4
		r := trace.NewRoutingMatrix(n, e)
		for i := 0; i < n; i++ {
			for j := 0; j < e; j++ {
				idx := i*e + j
				if idx < len(cells) {
					r.R[i][j] = int(cells[idx])
				}
			}
		}
		layout := NewLayout(e, n)
		for j := 0; j < e; j++ {
			any := false
			for d := 0; d < n; d++ {
				if layoutBits>>(uint(j*n+d)%31)&1 == 1 {
					layout.A[j][d] = 1
					any = true
				}
			}
			if !any {
				layout.A[j][j%n] = 1
			}
		}
		d := LeastLoadedRouting(r, layout, topo)
		return d.Validate(r, layout) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// BenchmarkRequestDispatch measures the serving router on the paper's
// evaluation scale: one iteration's decode traffic water-filled across a
// solved layout's replicas (the inference workload's per-layer dispatch).
func BenchmarkRequestDispatch(b *testing.B) {
	topo := topology.Default()
	r := benchMatrix(b, 32, 8, 16384)
	s := NewSolver(topo, 2, CostParams{TokenBytes: 8192, ExpertFLOPsPerToken: 352e6, FLOPS: 140e12}, DefaultSolverOptions())
	sol, err := s.Solve(r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LeastLoadedRouting(r, sol.Layout, topo)
	}
}

package planner

import (
	"slices"
	"testing"

	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

func benchMatrix(b *testing.B, n, e, tokens int) *trace.RoutingMatrix {
	b.Helper()
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices: n, Experts: e, Layers: 1, TokensPerDevice: tokens, TopK: 2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return gen.Step()[0]
}

// BenchmarkLiteRouting32 measures the synchronous token dispatcher at the
// paper's evaluation scale (Table 3's subject).
func BenchmarkLiteRouting32(b *testing.B) {
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
		LiteRouting(r, sol.Layout, topo)
	}
}

// routing128 is one layer at the online benchmark's shape: 512 experts on
// 16x8 devices at capacity 4, so every expert gets one replica and most
// tokens split globally over a single target.
func routing128(b *testing.B) (*trace.RoutingMatrix, *Layout, *topology.Topology) {
	topo := topology.New(16, 8)
	r := benchMatrix(b, 128, 512, 512)
	s := NewSolver(topo, 4, CostParams{TokenBytes: 8192, ExpertFLOPsPerToken: 352e6, FLOPS: 140e12}, DefaultSolverOptions())
	sol, err := s.Solve(r)
	if err != nil {
		b.Fatal(err)
	}
	return r, sol.Layout, topo
}

// BenchmarkLiteRouting128 routes routing128's layer into single
// assignments, the form the inference latency meter reads.
func BenchmarkLiteRouting128(b *testing.B) {
	r, layout, topo := routing128(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dispatchSink = LiteRouting(r, layout, topo)
	}
}

// BenchmarkLiteTraffic128 routes routing128's layer into the traffic
// form, which is what a simulated training iteration reads.
func BenchmarkLiteTraffic128(b *testing.B) {
	r, layout, topo := routing128(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dispatchSink = LiteTraffic(r, layout, topo)
	}
}

// dispatchSink keeps the benchmarked router's result live.
var dispatchSink *Dispatch

// BenchmarkSolve scales the full Alg. 2 layout tuner (Fig. 11's subject).
func BenchmarkSolve(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(benchName(n), func(b *testing.B) {
			topo := topology.New(n/8, 8)
			r := benchMatrix(b, n, 8, 16384)
			s := NewSolver(topo, 2, CostParams{TokenBytes: 8192, ExpertFLOPsPerToken: 352e6, FLOPS: 140e12},
				SolverOptions{Epsilon: 2})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplicaAllocation measures Alg. 4 alone.
func BenchmarkReplicaAllocation(b *testing.B) {
	r := benchMatrix(b, 128, 16, 16384)
	loads := r.ExpertLoads()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplicaAllocation(loads, 128, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpertRelocation measures Alg. 1 alone.
func BenchmarkExpertRelocation(b *testing.B) {
	topo := topology.New(16, 8)
	r := benchMatrix(b, 128, 8, 16384)
	loads := r.ExpertLoads()
	reps, err := ReplicaAllocation(loads, 128, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExpertRelocation(reps, loads, topo, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveWarm measures the warm-start re-solve at the scale
// experiment's production shape (512 devices, 2048 experts, C=4): the
// keep paths (loads unchanged or barely moved, the common steady-state
// outcome) and the replan path (drifted loads re-place part of the
// expert set).
func BenchmarkSolveWarm(b *testing.B) {
	topo := topology.New(64, 8)
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices: 512, Experts: 2048, Layers: 1, TokensPerDevice: 2048, TopK: 2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	r0 := gen.Step()[0]
	if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftMigration, Rate: 0.4}); err != nil {
		b.Fatal(err)
	}
	r1 := gen.Step()[0]
	s := NewSolver(topo, 4, CostParams{TokenBytes: 8192, ExpertFLOPsPerToken: 352e6, FLOPS: 140e12},
		SolverOptions{Epsilon: 2})
	sol0, err := s.Solve(r0)
	if err != nil {
		b.Fatal(err)
	}
	prevLoads := r0.ExpertLoads()

	// The production keep path: a drift tracker rides along (as a tracked
	// Layer's warm starts do), rebased from the cold solve's scoring walk,
	// so an observation posted twice unchanged folds in as a matrix diff
	// with no changed cell, and the keep verdict scores no cost.
	tr := newDriftTracker(topo)
	if err := tr.rebase(r0, prevLoads, 0, s.scored()); err != nil {
		b.Fatal(err)
	}
	b.Run("keep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.solveWarm(r0, WarmStart{Prev: sol0.Layout, PrevLoads: prevLoads}, tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The converged regime: two tokens move before every solve (one from
	// expert x to y on device 0, one from y to x on device 1, undone by the
	// next op), so cells change but no expert's load does, and every solve
	// keeps the layout.
	r, undo := r0.Clone(), false
	x := slices.IndexFunc(r.R[0], func(v int) bool { return v > 0 })
	y := -1
	for j, v := range r.R[1] {
		if v > 0 && j != x {
			y = j
			break
		}
	}
	b.Run("keep-drift", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			from, to := x, y
			if undo {
				from, to = y, x
			}
			undo = !undo
			r.R[0][from]--
			r.R[0][to]++
			r.R[1][to]--
			r.R[1][from]++
			sol, err := s.solveWarm(r, WarmStart{Prev: sol0.Layout, PrevLoads: prevLoads}, tr)
			if err != nil {
				b.Fatal(err)
			}
			if sol.Layout != sol0.Layout {
				b.Fatal("two token moves replanned the layer")
			}
		}
	})
	// The same warm start without a tracker — the full per-expert re-scan
	// and layout cost evaluation the incremental path amortizes away.
	b.Run("keep-full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.SolveWarm(r0, WarmStart{Prev: sol0.Layout, PrevLoads: prevLoads}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol, err := s.SolveWarm(r1, WarmStart{Prev: sol0.Layout, PrevLoads: prevLoads})
			if err != nil {
				b.Fatal(err)
			}
			// Steady-state protocol: the caller returns the layout it drops
			// to the solver's free list (here the fresh winner, since the
			// benchmark re-solves from the same previous epoch each time).
			if sol.Layout != sol0.Layout {
				s.Recycle(sol.Layout)
			}
		}
	})
}

// BenchmarkLayerReplan runs a tracked warm Layer at the online
// benchmark's shape (routing128's 512 experts on 16x8 devices at C=4)
// through a cycle of drifting observations, so most steps replan and
// rebase the tracker: the planning step of a drifting sim-online layer.
// It fails if no step replans.
func BenchmarkLayerReplan(b *testing.B) {
	topo := topology.New(16, 8)
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		Devices: 128, Experts: 512, Layers: 1, TokensPerDevice: 512, TopK: 2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]*trace.RoutingMatrix, 8)
	for i := range obs {
		if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftMigration, Rate: 0.4}); err != nil {
			b.Fatal(err)
		}
		obs[i] = gen.Step()[0]
	}
	initial, err := StaticEP(512, 128, 4)
	if err != nil {
		b.Fatal(err)
	}
	s := NewSolver(topo, 4, CostParams{TokenBytes: 8192, ExpertFLOPsPerToken: 352e6, FLOPS: 140e12}, DefaultSolverOptions())
	l := NewLayer(s, initial, true, true, 0)
	replans := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := l.Replan(obs[i%len(obs)], 0, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if st.Changed {
			replans++
		}
	}
	if replans == 0 {
		b.Fatal("no step replanned the layer")
	}
}

func benchName(n int) string {
	switch n {
	case 32:
		return "N=32"
	case 128:
		return "N=128"
	default:
		return "N=512"
	}
}

package planner

import (
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

// BenchmarkLiteRouting128 routes one layer at the online benchmark's
// shape: 512 experts on 16x8 devices at capacity 4, so every expert gets
// one replica and most tokens split globally over a single target.
func BenchmarkLiteRouting128(b *testing.B) {
	topo := topology.New(16, 8)
	r := benchMatrix(b, 128, 512, 512)
	s := NewSolver(topo, 4, CostParams{TokenBytes: 8192, ExpertFLOPsPerToken: 352e6, FLOPS: 140e12}, DefaultSolverOptions())
	sol, err := s.Solve(r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dispatchSink = LiteRouting(r, sol.Layout, topo)
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
// keep path (loads unchanged, the common steady-state outcome) and the
// replan path (drifted loads re-place part of the expert set).
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

	// The production keep path: a drift tracker rides along (as the online
	// planner's warm starts do), so a stationary observation folds in as a
	// matrix diff plus a cached keep cost instead of a full re-score.
	tr := NewDriftTracker(topo)
	if err := tr.Rebase(r0, sol0.Layout, prevLoads, 0); err != nil {
		b.Fatal(err)
	}
	b.Run("keep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.SolveWarm(r0, WarmStart{Prev: sol0.Layout, PrevLoads: prevLoads, Tracker: tr}); err != nil {
				b.Fatal(err)
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

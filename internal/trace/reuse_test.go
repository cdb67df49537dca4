package trace

import (
	"math/rand"
	"slices"
	"testing"
)

func stepIntoCfg() GeneratorConfig {
	return GeneratorConfig{
		Devices: 8, Experts: 16, Layers: 4, TokensPerDevice: 1024, TopK: 2, Seed: 21,
	}
}

func matricesEqual(a, b []*RoutingMatrix) bool {
	if len(a) != len(b) {
		return false
	}
	for l := range a {
		if a[l].N != b[l].N || a[l].E != b[l].E {
			return false
		}
		for i := range a[l].R {
			for j := range a[l].R[i] {
				if a[l].R[i][j] != b[l].R[i][j] {
					return false
				}
			}
		}
	}
	return true
}

// TestStepIntoMatchesStep: reusing caller-owned matrices must reproduce the
// allocating path exactly, iteration after iteration.
func TestStepIntoMatchesStep(t *testing.T) {
	ga := mustGen(t, stepIntoCfg())
	gb := mustGen(t, stepIntoCfg())
	var bufs []*RoutingMatrix
	for it := 0; it < 5; it++ {
		want := ga.Step()
		bufs = gb.StepInto(bufs)
		if !matricesEqual(want, bufs) {
			t.Fatalf("iteration %d: StepInto differs from Step", it)
		}
	}
	if ga.Iteration() != gb.Iteration() {
		t.Fatalf("iteration counters diverged: %d vs %d", ga.Iteration(), gb.Iteration())
	}
}

// TestStepIntoReplacesForeignShapes: nil, short and wrongly shaped dst
// entries must be replaced with correct matrices, not written through.
func TestStepIntoReplacesForeignShapes(t *testing.T) {
	g := mustGen(t, stepIntoCfg())
	want := mustGen(t, stepIntoCfg()).Step()
	dst := []*RoutingMatrix{nil, NewRoutingMatrix(2, 3)} // short + misshapen
	dst = g.StepInto(dst)
	if !matricesEqual(want, dst) {
		t.Fatal("StepInto with foreign dst shapes differs from Step")
	}
	for l, m := range dst {
		if err := m.Validate(); err != nil {
			t.Fatalf("layer %d: %v", l, err)
		}
	}
}

// TestStepIntoParallelMatchesSerial: per-layer random streams must make the
// trace byte-identical at any worker count, including across drift.
func TestStepIntoParallelMatchesSerial(t *testing.T) {
	serialCfg := stepIntoCfg()
	serialCfg.Parallelism = 1
	for _, workers := range []int{2, 8} {
		parCfg := stepIntoCfg()
		parCfg.Parallelism = workers
		gs, gp := mustGen(t, serialCfg), mustGen(t, parCfg)
		var sb, pb []*RoutingMatrix
		for it := 0; it < 4; it++ {
			if it == 2 {
				for _, g := range []*Generator{gs, gp} {
					if err := g.ApplyDrift(DriftConfig{Model: DriftMigration, Rate: 0.4}); err != nil {
						t.Fatal(err)
					}
				}
			}
			sb, pb = gs.StepInto(sb), gp.StepInto(pb)
			if !matricesEqual(sb, pb) {
				t.Fatalf("workers=%d iteration %d: parallel trace differs from serial", workers, it)
			}
		}
	}
}

// TestZeroAllocSteadyState: once the routing matrices exist, serial
// StepInto must allocate nothing per iteration — the property that lets
// the online engine replay production shapes without GC churn.
func TestZeroAllocSteadyState(t *testing.T) {
	cfg := stepIntoCfg()
	cfg.Parallelism = 1
	g := mustGen(t, cfg)
	var bufs []*RoutingMatrix
	bufs = g.StepInto(bufs) // warm the matrices and scratch
	allocs := testing.AllocsPerRun(20, func() {
		bufs = g.StepInto(bufs)
	})
	if allocs != 0 {
		t.Fatalf("StepInto allocates %.1f objects per iteration, want 0", allocs)
	}
}

// apportionReference is the historical O(E^2) remainder loop, kept as the
// oracle for the sort-based selection.
func apportionReference(p []float64, total int) []int {
	n := len(p)
	out := make([]int, n)
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, n)
	assigned := 0
	for j, pj := range p {
		exact := pj * float64(total)
		out[j] = int(exact)
		assigned += out[j]
		rems[j] = rem{j, exact - float64(out[j])}
	}
	for assigned < total {
		best := -1
		for j := range rems {
			if best == -1 || rems[j].frac > rems[best].frac {
				best = j
			}
		}
		out[rems[best].idx]++
		rems[best].frac = -1
		assigned++
	}
	return out
}

// TestApportionMatchesReference: the sort-based largest-remainder selection
// must reproduce the linear-scan loop exactly — same totals, same experts,
// same tie-breaks — across random distributions and totals.
func TestApportionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		p := make([]float64, n)
		sum := 0.0
		for j := range p {
			p[j] = rng.Float64()
			if rng.Intn(4) == 0 && j > 0 {
				p[j] = p[j-1] // exercise exact fraction ties
			}
			sum += p[j]
		}
		for j := range p {
			p[j] /= sum
		}
		total := rng.Intn(5000)
		got, want := Apportion(p, total), apportionReference(p, total)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d (n=%d total=%d): expert %d got %d, reference %d",
					trial, n, total, j, got[j], want[j])
			}
		}
	}
}

// sortedApportionInto is the historical full-sort reference implementation,
// kept as the oracle the quickselect kernel is pinned against.
func sortedApportionInto(out []int, p []float64, total int, rems []remEntry) {
	n := len(p)
	assigned := 0
	for j, pj := range p {
		exact := pj * float64(total)
		v := int(exact)
		out[j] = v
		assigned += v
		rems[j] = remEntry{j, exact - float64(v)}
	}
	k := total - assigned
	if k <= 0 {
		return
	}
	slices.SortFunc(rems, func(a, b remEntry) int {
		switch {
		case a.frac > b.frac:
			return -1
		case a.frac < b.frac:
			return 1
		default:
			return a.idx - b.idx
		}
	})
	for i := 0; i < k && i < n; i++ {
		out[rems[i].idx]++
	}
	if k > n {
		out[0] += k - n
	}
}

func TestApportionQuickselectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		p := make([]float64, n)
		var sum float64
		for j := range p {
			p[j] = rng.Float64()
			sum += p[j]
		}
		if trial%3 == 0 {
			// Normalized distribution (the production regime).
			for j := range p {
				p[j] /= sum
			}
		}
		total := rng.Intn(4096)
		got := make([]int, n)
		want := make([]int, n)
		apportionInto(got, p, total, make([]remEntry, n))
		sortedApportionInto(want, p, total, make([]remEntry, n))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d total=%d): quickselect %v != sort %v", trial, n, total, got, want)
		}
	}
}

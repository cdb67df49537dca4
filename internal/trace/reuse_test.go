package trace

import (
	"math"
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
// kept as the oracle the counting-select kernel is pinned against.
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

// TestApportionCountingSelectMatchesSort pins the counting select to the
// full sort it replaced: end to end through apportionInto on random,
// tied, all-equal (one bucket holds every entry) and negative
// distributions up to E=16384, and at the kernel with k fixed at 1, n-1
// and random values over fractions drawn uniform, from a four-value set,
// all equal, packed into one bucket, or partly negative.
func TestApportionCountingSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sc remScratch
	check := func(name string, p []float64, total int) {
		t.Helper()
		got := make([]int, len(p))
		want := make([]int, len(p))
		apportionInto(got, p, total, &sc)
		sortedApportionInto(want, p, total, make([]remEntry, len(p)))
		if !slices.Equal(got, want) {
			t.Fatalf("%s (n=%d total=%d): counting select %v != sort %v", name, len(p), total, got, want)
		}
	}
	sizes := func(trial int) int {
		switch trial % 50 {
		case 0:
			return 16384
		case 1:
			return 1 + rng.Intn(4096)
		}
		return 1 + rng.Intn(64)
	}
	for trial := 0; trial < 200; trial++ {
		n := sizes(trial)
		p := make([]float64, n)
		var sum float64
		for j := range p {
			p[j] = rng.Float64()
			if trial%4 == 1 && j > 0 && rng.Intn(3) == 0 {
				p[j] = p[j-1] // generated fraction ties
			}
			if trial%4 == 2 && rng.Intn(8) == 0 {
				p[j] = -p[j] // fractions in (-1, 0] clamp to bucket 0
			}
			sum += p[j]
		}
		if trial%3 == 0 {
			// Normalized distribution (the production regime).
			for j := range p {
				p[j] /= sum
			}
		}
		check("random", p, rng.Intn(4*n+4096))

		// All-equal fractions: every entry in one bucket, with the
		// remainder k = 1 and k = n-1.
		for j := range p {
			p[j] = 1 / float64(n)
		}
		m := rng.Intn(8)
		check("uniform k=1", p, n*m+1)
		check("uniform k=n-1", p, n*m+n-1)
	}

	// Kernel level, k fixed.
	for trial := 0; trial < 300; trial++ {
		n := 2 + sizes(trial)
		rems := make([]remEntry, n)
		equal := rng.Float64()
		for j := range rems {
			var f float64
			switch trial % 5 {
			case 0:
				f = rng.Float64()
			case 1:
				f = []float64{0, 0.125, 0.5, 0.75}[rng.Intn(4)]
			case 2:
				f = equal
			case 3:
				f = 0.5 + rng.Float64()*1e-9 // one bucket at any size
			case 4:
				f = rng.Float64()*2 - 1
			}
			rems[j] = remEntry{j, f}
		}
		for _, k := range []int{1, n - 1, 1 + rng.Intn(n-1)} {
			sc.resize(n)
			got := append(sc.rems[:0], rems...)
			clear(sc.buckets)
			for _, r := range got {
				sc.buckets[remBucket(r.frac, len(sc.buckets))]++
			}
			selectTopRems(got, k, sc.buckets)
			want := slices.Clone(rems)
			slices.SortFunc(want, remCmp)
			gotIdx, wantIdx := make([]int, k), make([]int, k)
			for i := 0; i < k; i++ {
				gotIdx[i], wantIdx[i] = got[i].idx, want[i].idx
			}
			slices.Sort(gotIdx)
			slices.Sort(wantIdx)
			if !slices.Equal(gotIdx, wantIdx) {
				t.Fatalf("trial %d (mode %d, n=%d, k=%d): selected %v, sort selects %v", trial, trial%5, n, k, gotIdx, wantIdx)
			}
		}
	}
}

// TestApportionClampsUnbucketable: probabilities whose remainders fall
// outside [0, 1) (negative, infinite, NaN, past int range) must not index
// past the bucket counts, and a negative one ranks as the sort ranks it.
func TestApportionClampsUnbucketable(t *testing.T) {
	for _, p := range [][]float64{
		{math.NaN(), 0.5, 0.25},
		{math.Inf(1), 0.1, math.Inf(-1)},
		{-0.3, 0.7, 0.6},
		{1e300, 0.5, 0.5},
	} {
		out := Apportion(p, 10)
		if len(out) != len(p) {
			t.Fatalf("Apportion(%v) = %v", p, out)
		}
	}
	for _, c := range []struct {
		frac float64
		want int
	}{
		{math.NaN(), 0}, {-0.5, 0}, {0, 0}, {0.5, 4}, {math.Nextafter(1, 0), 7}, {1, 7}, {math.Inf(1), 7},
	} {
		if got := remBucket(c.frac, 8); got != c.want {
			t.Errorf("remBucket(%v, 8) = %d, want %d", c.frac, got, c.want)
		}
	}
	p := []float64{-0.3, 0.7, 0.6}
	want := make([]int, len(p))
	sortedApportionInto(want, p, 10, make([]remEntry, len(p)))
	if got := Apportion(p, 10); !slices.Equal(got, want) {
		t.Fatalf("Apportion(%v, 10) = %v, sort gives %v", p, got, want)
	}
}

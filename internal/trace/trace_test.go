package trace

import (
	"math"
	"testing"
	"testing/quick"

	"laermoe/internal/stats"
)

func mustGen(t *testing.T, cfg GeneratorConfig) *Generator {
	t.Helper()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return g
}

func baseConfig() GeneratorConfig {
	return GeneratorConfig{
		Devices: 8, Experts: 8, Layers: 4, TokensPerDevice: 1024, TopK: 2, Seed: 11,
	}
}

// TestConservation: every device dispatches exactly TokensPerDevice * TopK
// assignments in every layer of every iteration.
func TestConservation(t *testing.T) {
	g := mustGen(t, baseConfig())
	for it := 0; it < 5; it++ {
		for l, m := range g.Step() {
			if err := m.Validate(); err != nil {
				t.Fatalf("iter %d layer %d: %v", it, l, err)
			}
			for i, tot := range m.DeviceTotals() {
				if tot != 1024*2 {
					t.Fatalf("iter %d layer %d device %d: %d assignments, want %d", it, l, i, tot, 2048)
				}
			}
		}
	}
}

// TestDeterminism: identical seeds give identical traces; different seeds
// give different ones.
func TestDeterminism(t *testing.T) {
	a := mustGen(t, baseConfig())
	b := mustGen(t, baseConfig())
	cfgC := baseConfig()
	cfgC.Seed = 99
	c := mustGen(t, cfgC)
	sawDiff := false
	for it := 0; it < 3; it++ {
		ma, mb, mc := a.Step(), b.Step(), c.Step()
		for l := range ma {
			for i := 0; i < ma[l].N; i++ {
				for j := 0; j < ma[l].E; j++ {
					if ma[l].R[i][j] != mb[l].R[i][j] {
						t.Fatalf("same-seed traces diverge at iter %d layer %d", it, l)
					}
					if ma[l].R[i][j] != mc[l].R[i][j] {
						sawDiff = true
					}
				}
			}
		}
	}
	if !sawDiff {
		t.Error("different seeds produced identical traces")
	}
}

// TestImbalanceExists: with default skew, expert loads are significantly
// imbalanced (the Fig. 1a phenomenon), with max/mean commonly above 1.5.
func TestImbalanceExists(t *testing.T) {
	g := mustGen(t, baseConfig())
	above := 0
	total := 0
	for it := 0; it < 10; it++ {
		for _, m := range g.Step() {
			if stats.Imbalance(m.ExpertLoads()) > 1.5 {
				above++
			}
			total++
		}
	}
	if above < total/2 {
		t.Errorf("only %d/%d layer-iterations show >1.5x imbalance", above, total)
	}
}

// TestAuxLossRebalances: the paper's Fig. 2 mechanism — a large auxiliary
// loss weight pushes routing toward uniform; 1e-4 barely changes it.
func TestAuxLossRebalances(t *testing.T) {
	imbAt := func(w float64) float64 {
		cfg := baseConfig()
		cfg.AuxLossWeight = w
		g := mustGen(t, cfg)
		sum, n := 0.0, 0
		for it := 0; it < 10; it++ {
			for _, m := range g.Step() {
				sum += stats.Imbalance(m.ExpertLoads())
				n++
			}
		}
		return sum / float64(n)
	}
	none, small, large := imbAt(0), imbAt(1e-4), imbAt(1e-2)
	if !(none >= small && small >= large) {
		t.Errorf("imbalance ordering violated: w=0 %.3f, w=1e-4 %.3f, w=1e-2 %.3f", none, small, large)
	}
	if large > 1.25 {
		t.Errorf("w=1e-2 should nearly balance routing, got imbalance %.3f", large)
	}
	if none < 1.5 {
		t.Errorf("w=0 should be clearly imbalanced, got %.3f", none)
	}
}

// TestTemporalPersistence: consecutive iterations' expert-load vectors must
// be strongly correlated (hotspots drift slowly) — the property that makes
// the paper's history-based planning viable.
func TestTemporalPersistence(t *testing.T) {
	g := mustGen(t, baseConfig())
	var prev []float64
	var corrs []float64
	for it := 0; it < 40; it++ {
		loads := g.Step()[0].ExpertLoads()
		if prev != nil {
			corrs = append(corrs, pearson(prev, loads))
		}
		prev = loads
	}
	mean := stats.Mean(corrs)
	if mean < 0.8 {
		t.Errorf("mean consecutive-iteration load correlation %.3f, want >= 0.8", mean)
	}
}

func pearson(a, b []float64) float64 {
	ma, mb := stats.Mean(a), stats.Mean(b)
	var num, da, db float64
	for i := range a {
		x, y := a[i]-ma, b[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 1
	}
	return num / math.Sqrt(da*db)
}

// TestLayersDiffer: different layers should have different hot experts at
// least sometimes (Fig. 1a shows per-layer variation).
func TestLayersDiffer(t *testing.T) {
	g := mustGen(t, baseConfig())
	ms := g.Step()
	hotOf := func(m *RoutingMatrix) int {
		loads := m.ExpertLoads()
		hot := 0
		for j, v := range loads {
			if v > loads[hot] {
				hot = j
			}
		}
		return hot
	}
	first := hotOf(ms[0])
	for _, m := range ms[1:] {
		if hotOf(m) != first {
			return
		}
	}
	t.Error("all layers share one hot expert; per-layer variation missing")
}

func TestExpertProbabilitiesSumToOne(t *testing.T) {
	g := mustGen(t, baseConfig())
	g.Step()
	p := g.ExpertProbabilities(0)
	sum := 0.0
	for _, v := range p {
		if v < 0 {
			t.Fatalf("negative probability %g", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %g", sum)
	}
}

// TestApportionExact: Apportion always hits the requested total with
// non-negative integer parts (property-based).
func TestApportionExact(t *testing.T) {
	f := func(raw []uint8, totalRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		total := int(totalRaw % 10000)
		ps := make([]float64, len(raw))
		sum := 0.0
		for i, v := range raw {
			ps[i] = float64(v) + 0.01 // avoid all-zero
			sum += ps[i]
		}
		for i := range ps {
			ps[i] /= sum
		}
		out := Apportion(ps, total)
		got := 0
		for _, v := range out {
			if v < 0 {
				return false
			}
			got += v
		}
		return got == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBalancedMatrix(t *testing.T) {
	m := Balanced(4, 8, 1000, 2)
	for i, tot := range m.DeviceTotals() {
		if tot != 2000 {
			t.Fatalf("device %d total %d, want 2000", i, tot)
		}
	}
	if imb := stats.Imbalance(m.ExpertLoads()); imb > 1.001 {
		t.Errorf("balanced matrix has expert imbalance %.4f", imb)
	}
	// Indivisible case: remainders must still conserve totals.
	m2 := Balanced(3, 7, 100, 1)
	for i, tot := range m2.DeviceTotals() {
		if tot != 100 {
			t.Fatalf("device %d total %d, want 100", i, tot)
		}
	}
}

func TestGeneratorConfigValidation(t *testing.T) {
	bad := []GeneratorConfig{
		{Devices: 0, Experts: 8, Layers: 1, TokensPerDevice: 10, TopK: 1},
		{Devices: 2, Experts: 8, Layers: 1, TokensPerDevice: 0, TopK: 1},
		{Devices: 2, Experts: 4, Layers: 1, TokensPerDevice: 10, TopK: 5},
		{Devices: 2, Experts: 4, Layers: 0, TokensPerDevice: 10, TopK: 2},
	}
	for i, cfg := range bad {
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRoutingMatrixHelpers(t *testing.T) {
	m := NewRoutingMatrix(2, 3)
	m.R[0][1] = 5
	m.R[1][2] = 7
	if m.Total() != 12 {
		t.Errorf("Total = %d, want 12", m.Total())
	}
	loads := m.ExpertLoads()
	if loads[1] != 5 || loads[2] != 7 || loads[0] != 0 {
		t.Errorf("ExpertLoads = %v", loads)
	}
	c := m.Clone()
	c.R[0][1] = 99
	if m.R[0][1] != 5 {
		t.Error("Clone aliases original")
	}
	m.R[0][0] = -1
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted negative count")
	}
}

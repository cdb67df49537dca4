package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanSumMaxMin(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if got := Mean(xs); !almost(got, 2.8, 1e-12) {
		t.Errorf("Mean = %g, want 2.8", got)
	}
	if got := Sum(xs); got != 14 {
		t.Errorf("Sum = %g, want 14", got)
	}
	if got := Max(xs); got != 5 {
		t.Errorf("Max = %g, want 5", got)
	}
	if got := Min(xs); got != 1 {
		t.Errorf("Min = %g, want 1", got)
	}
	if Mean(nil) != 0 || Max(nil) != 0 || Min(nil) != 0 {
		t.Error("empty-slice summaries should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-9) {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 10 || xs[3] != 40 {
		t.Error("Percentile mutated its input")
	}
}

// NaN compares false against everything, so before the fix a NaN in the
// input scrambled sort.Float64s ordering and Percentile returned an
// arbitrary in-range value. It must propagate NaN explicitly.
func TestPercentileNaN(t *testing.T) {
	if got := Percentile([]float64{1, math.NaN(), 3}, 50); !math.IsNaN(got) {
		t.Errorf("Percentile with NaN input = %g, want NaN", got)
	}
	if got := Percentile([]float64{math.NaN()}, 0); !math.IsNaN(got) {
		t.Errorf("Percentile of {NaN} = %g, want NaN", got)
	}
}

func TestEMAAlphaValidation(t *testing.T) {
	for _, alpha := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := NewVectorEMA(alpha, 3); err == nil {
			t.Errorf("NewVectorEMA(%g) accepted an invalid smoothing factor", alpha)
		}
	}
	if _, err := NewVectorEMA(1, 3); err != nil {
		t.Errorf("NewVectorEMA(1, 3) rejected the boundary alpha: %v", err)
	}
	if _, err := NewVectorEMA(0.3, 0); err == nil {
		t.Error("NewVectorEMA accepted a zero length")
	}
}

func TestVectorEMAValuesInto(t *testing.T) {
	v, err := NewVectorEMA(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Initialized() || v.Len() != 2 {
		t.Fatal("fresh VectorEMA state inconsistent")
	}
	v.Observe([]float64{7, 9})
	dst := make([]float64, 2)
	v.ValuesInto(dst)
	if dst[0] != 7 || dst[1] != 9 {
		t.Errorf("ValuesInto = %v, want [7 9]", dst)
	}
	defer func() {
		if recover() == nil {
			t.Error("length-mismatched ValuesInto should panic")
		}
	}()
	v.ValuesInto(make([]float64, 3))
}

func TestImbalance(t *testing.T) {
	if got := Imbalance([]float64{5, 5, 5}); got != 1 {
		t.Errorf("balanced imbalance = %g, want 1", got)
	}
	if got := Imbalance([]float64{10, 0, 0, 2}); !almost(got, 10/3.0, 1e-12) {
		t.Errorf("imbalance = %g, want %g", got, 10/3.0)
	}
	if got := Imbalance(nil); got != 1 {
		t.Errorf("empty imbalance = %g, want 1", got)
	}
}

func TestImbalanceAtLeastOne(t *testing.T) {
	f := func(raw []uint16) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		return Imbalance(xs) >= 1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorEMA(t *testing.T) {
	v, err := NewVectorEMA(0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	v.Observe([]float64{4, 8})
	v.Observe([]float64{8, 0})
	got := v.Values()
	if !almost(got[0], 6, 1e-12) || !almost(got[1], 4, 1e-12) {
		t.Errorf("VectorEMA values = %v, want [6 4]", got)
	}
	// Values() must be a copy.
	got[0] = 99
	if v.Values()[0] == 99 {
		t.Error("Values() aliases internal state")
	}
	defer func() {
		if recover() == nil {
			t.Error("length-mismatched Observe should panic")
		}
	}()
	v.Observe([]float64{1})
}

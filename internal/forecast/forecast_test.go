package forecast

import (
	"math"
	"testing"

	"laermoe/internal/trace"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func observeAll(p Predictor, seq [][]float64) {
	for _, v := range seq {
		p.Observe(v)
	}
}

func everyPredictor(t *testing.T, experts int) []Predictor {
	t.Helper()
	var out []Predictor
	for _, k := range Kinds() {
		p, err := New(k, experts)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != string(k) {
			t.Fatalf("predictor %q reports name %q", k, p.Name())
		}
		if p.Experts() != experts {
			t.Fatalf("predictor %q reports %d experts, want %d", k, p.Experts(), experts)
		}
		if p.Ready() {
			t.Fatalf("fresh predictor %q claims to be ready", k)
		}
		out = append(out, p)
	}
	return out
}

// A constant sequence is the one closed form every predictor must nail
// exactly: last value, any EMA and any line fit all reproduce it.
func TestConstantSequenceExact(t *testing.T) {
	seq := [][]float64{{5, 3, 8}, {5, 3, 8}, {5, 3, 8}, {5, 3, 8}}
	for _, p := range everyPredictor(t, 3) {
		observeAll(p, seq)
		got := Forecast(p)
		for j, want := range []float64{5, 3, 8} {
			if !almost(got[j], want, 1e-9) {
				t.Errorf("%s: constant forecast[%d] = %g, want %g", p.Name(), j, got[j], want)
			}
		}
	}
}

// On a linear ramp the trend predictor extrapolates exactly, last-value
// lags by one slope step, and the EMA lags even further — the closed-form
// ordering the confidence gate relies on.
func TestLinearRamp(t *testing.T) {
	// loads[j] at window k: 10 + 2k for expert 0, 40 - 3k for expert 1.
	var seq [][]float64
	for k := 0; k < 4; k++ {
		seq = append(seq, []float64{10 + 2*float64(k), 40 - 3*float64(k)})
	}
	next := []float64{10 + 2*4, 40 - 3*4} // window 4

	trend, err := New(KindTrend, 2)
	if err != nil {
		t.Fatal(err)
	}
	observeAll(trend, seq)
	got := Forecast(trend)
	for j := range next {
		if !almost(got[j], next[j], 1e-9) {
			t.Errorf("trend ramp forecast[%d] = %g, want %g", j, got[j], next[j])
		}
	}

	last, err := New(KindLast, 2)
	if err != nil {
		t.Fatal(err)
	}
	observeAll(last, seq)
	lv := Forecast(last)
	if !almost(lv[0], 16, 1e-9) || !almost(lv[1], 31, 1e-9) {
		t.Errorf("last-value ramp forecast = %v, want [16 31]", lv)
	}

	ema, err := New(KindEMA, 2)
	if err != nil {
		t.Fatal(err)
	}
	observeAll(ema, seq)
	ev := Forecast(ema)
	// On a rising ramp the EMA must sit strictly below last-value, which
	// sits strictly below the true next value.
	if !(ev[0] < lv[0] && lv[0] < next[0]) {
		t.Errorf("rising ramp ordering violated: ema %g, last %g, next %g", ev[0], lv[0], next[0])
	}
	if !(ev[1] > lv[1] && lv[1] > next[1]) {
		t.Errorf("falling ramp ordering violated: ema %g, last %g, next %g", ev[1], lv[1], next[1])
	}
}

// The trend window slides: after enough post-step observations the
// pre-step history ages out and a step change is forecast exactly again.
func TestStepChange(t *testing.T) {
	trend, err := NewLinearTrend(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		trend.Observe([]float64{10})
	}
	for i := 0; i < 3; i++ {
		trend.Observe([]float64{50})
	}
	got := Forecast(trend)
	if !almost(got[0], 50, 1e-9) {
		t.Errorf("trend after step window filled = %g, want 50", got[0])
	}

	last, err := NewLastValue(1)
	if err != nil {
		t.Fatal(err)
	}
	last.Observe([]float64{10})
	last.Observe([]float64{50})
	if got := Forecast(last); !almost(got[0], 50, 1e-9) {
		t.Errorf("last-value after step = %g, want 50", got[0])
	}
}

// A single observation must already forecast (= last value) for every
// predictor, so the online engine can shadow-forecast from epoch 1.
func TestSingleObservationDegradesToLastValue(t *testing.T) {
	for _, p := range everyPredictor(t, 2) {
		p.Observe([]float64{7, 11})
		if !p.Ready() {
			t.Fatalf("%s not ready after one observation", p.Name())
		}
		got := Forecast(p)
		if !almost(got[0], 7, 1e-9) || !almost(got[1], 11, 1e-9) {
			t.Errorf("%s single-observation forecast = %v, want [7 11]", p.Name(), got)
		}
	}
}

// Extrapolating a falling ramp below zero must clamp: loads are counts.
func TestTrendClampsNegative(t *testing.T) {
	trend, err := NewLinearTrend(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		trend.Observe([]float64{30 - 10*float64(k)})
	}
	if got := Forecast(trend); got[0] != 0 {
		t.Errorf("negative extrapolation = %g, want clamp to 0", got[0])
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("oracle", 4); err == nil {
		t.Error("unknown predictor kind accepted")
	}
	for _, k := range Kinds() {
		if _, err := New(k, 0); err == nil {
			t.Errorf("%s accepted zero experts", k)
		}
	}
	if _, err := NewLinearTrend(1, 4); err == nil {
		t.Error("trend window below 2 accepted")
	}
	if _, err := NewEMA(1.5, 4); err == nil {
		t.Error("EMA alpha above 1 accepted")
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	for _, p := range everyPredictor(t, 3) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: forecast before any observation should panic", p.Name())
				}
			}()
			p.ForecastInto(make([]float64, 3))
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: length-mismatched Observe should panic", p.Name())
				}
			}()
			p.Observe(make([]float64, 2))
		}()
		p.Observe([]float64{1, 2, 3})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: length-mismatched ForecastInto should panic", p.Name())
				}
			}()
			p.ForecastInto(make([]float64, 2))
		}()
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError([]float64{1, 2}, []float64{1, 2}); got != 0 {
		t.Errorf("exact prediction error = %g, want 0", got)
	}
	if got := RelativeError([]float64{2, 2}, []float64{1, 3}); !almost(got, 0.5, 1e-12) {
		t.Errorf("error = %g, want 0.5", got)
	}
	if got := RelativeError([]float64{0, 0}, []float64{0, 0}); got != 0 {
		t.Errorf("all-zero error = %g, want 0", got)
	}
	if got := RelativeError([]float64{1, 0}, []float64{0, 0}); !math.IsInf(got, 1) {
		t.Errorf("nonzero prediction of zero realization = %g, want +Inf", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	RelativeError([]float64{1}, []float64{1, 2})
}

func TestSynthRouting(t *testing.T) {
	m := trace.NewRoutingMatrix(3, 4)
	if err := SynthRoutingInto(m, []float64{30, 10, 0, -5}, 8); err != nil {
		t.Fatal(err)
	}
	for i, row := range m.R {
		sum := 0
		for _, v := range row {
			sum += v
		}
		if sum != 8 {
			t.Errorf("row %d sums to %d, want 8", i, sum)
		}
	}
	// 30:10 of a 40 total over 8 assignments → 6 and 2; negatives clamp.
	if m.R[0][0] != 6 || m.R[0][1] != 2 || m.R[0][2] != 0 || m.R[0][3] != 0 {
		t.Errorf("row = %v, want [6 2 0 0]", m.R[0])
	}
	if err := m.Validate(); err != nil {
		t.Errorf("synthesized matrix invalid: %v", err)
	}

	// Writing into the same matrix again replaces every row.
	if err := SynthRoutingInto(m, []float64{0, 0, 0, 1}, 8); err != nil {
		t.Fatal(err)
	}
	for i, row := range m.R {
		if row[0] != 0 || row[3] != 8 {
			t.Errorf("rewritten row %d = %v, want [0 0 0 8]", i, row)
		}
	}

	// All-zero forecast degrades to uniform.
	u := trace.NewRoutingMatrix(1, 2)
	if err := SynthRoutingInto(u, []float64{0, 0}, 4); err != nil {
		t.Fatal(err)
	}
	if u.R[0][0] != 2 || u.R[0][1] != 2 {
		t.Errorf("uniform fallback row = %v, want [2 2]", u.R[0])
	}

	if err := SynthRoutingInto(trace.NewRoutingMatrix(2, 0), nil, 4); err == nil {
		t.Error("empty forecast accepted")
	}
	if err := SynthRoutingInto(trace.NewRoutingMatrix(0, 1), []float64{1}, 4); err == nil {
		t.Error("zero devices accepted")
	}
	if err := SynthRoutingInto(trace.NewRoutingMatrix(2, 1), []float64{1}, 0); err == nil {
		t.Error("zero per-device assignments accepted")
	}
	if err := SynthRoutingInto(trace.NewRoutingMatrix(2, 3), []float64{1, 2}, 4); err == nil {
		t.Error("forecast of the wrong width accepted")
	}
}

// Observe and ForecastInto must be allocation-free in steady state — they
// run per layer per epoch boundary inside the online engine's hot path.
func TestZeroAllocSteadyState(t *testing.T) {
	loads := []float64{4, 8, 15, 16, 23, 42, 4, 8}
	dst := make([]float64, len(loads))
	for _, k := range Kinds() {
		p, err := New(k, len(loads))
		if err != nil {
			t.Fatal(err)
		}
		// Warm up past ring-fill and EMA initialization.
		for i := 0; i < 8; i++ {
			p.Observe(loads)
		}
		if avg := testing.AllocsPerRun(100, func() {
			p.Observe(loads)
			p.ForecastInto(dst)
		}); avg != 0 {
			t.Errorf("%s: %g allocs per Observe+ForecastInto, want 0", k, avg)
		}
	}
}

// Package stats provides the small statistical utilities used across the
// simulator and the experiment harness: summaries, imbalance measures and
// exponential moving averages.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It copies xs and leaves it unchanged.
// A NaN anywhere in xs yields NaN: NaN compares false against everything,
// so it would silently scramble the sort order and return an arbitrary
// in-range value instead of signalling the poisoned input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	for _, x := range xs {
		if math.IsNaN(x) {
			return math.NaN()
		}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Imbalance returns max/mean of xs — the load-imbalance ratio used
// throughout the paper (1.0 = perfectly balanced). Returns 1 when the mean
// is zero or the slice is empty.
func Imbalance(xs []float64) float64 {
	mu := Mean(xs)
	if mu == 0 {
		return 1
	}
	return Max(xs) / mu
}

// validAlpha checks an EMA smoothing factor. Alpha must lie in (0,1]:
// alpha <= 0 freezes the average (or oscillates for negative values) and
// alpha > 1 diverges, so anything outside the interval is a configuration
// error, not an average.
func validAlpha(alpha float64) error {
	if math.IsNaN(alpha) || alpha <= 0 || alpha > 1 {
		return fmt.Errorf("stats: EMA smoothing factor %g outside (0,1]", alpha)
	}
	return nil
}

// VectorEMA maintains an element-wise EMA over fixed-length vectors, used
// to smooth historical routing loads for the asynchronous planner.
type VectorEMA struct {
	Alpha  float64
	values []float64
	init   bool
}

// NewVectorEMA returns a vector EMA of the given length. Alpha must lie in
// (0,1].
func NewVectorEMA(alpha float64, n int) (*VectorEMA, error) {
	if err := validAlpha(alpha); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("stats: VectorEMA length %d must be positive", n)
	}
	return &VectorEMA{Alpha: alpha, values: make([]float64, n)}, nil
}

// Observe folds xs in element-wise. It panics if len(xs) differs from the
// configured length.
func (e *VectorEMA) Observe(xs []float64) {
	if len(xs) != len(e.values) {
		panic("stats: VectorEMA length mismatch")
	}
	if !e.init {
		copy(e.values, xs)
		e.init = true
		return
	}
	for i, x := range xs {
		e.values[i] = e.Alpha*x + (1-e.Alpha)*e.values[i]
	}
}

// Values returns a copy of the current averages.
func (e *VectorEMA) Values() []float64 {
	return append([]float64(nil), e.values...)
}

// ValuesInto copies the current averages into dst without allocating. It
// panics if len(dst) differs from the configured length.
func (e *VectorEMA) ValuesInto(dst []float64) {
	if len(dst) != len(e.values) {
		panic("stats: VectorEMA length mismatch")
	}
	copy(dst, e.values)
}

// Initialized reports whether at least one vector has been folded in.
func (e *VectorEMA) Initialized() bool { return e.init }

// RestoreValues overwrites the averages with a previously exported vector
// and marks the EMA initialized — the state-restore hook behind journal
// compaction (a restored average must continue the series exactly where
// the exported one stopped). It panics if len(xs) differs from the
// configured length.
func (e *VectorEMA) RestoreValues(xs []float64) {
	if len(xs) != len(e.values) {
		panic("stats: VectorEMA length mismatch")
	}
	copy(e.values, xs)
	e.init = true
}

// Len returns the configured vector length.
func (e *VectorEMA) Len() int { return len(e.values) }

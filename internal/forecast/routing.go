package forecast

import (
	"fmt"

	"laermoe/internal/trace"
)

// SynthRoutingInto converts a forecast per-expert load vector into the
// routing matrix shape the planner solves from, writing it into m (devices
// × len(loads), so a planner that synthesizes a matrix per layer per epoch
// reuses one): every device splits its perDevice assignments across
// experts proportionally to the (non-negative part of the) forecast, with
// exact row sums via deterministic largest-remainder rounding. Devices get
// identical rows — the forecast carries no per-device information, and
// the planner's cost model only needs the column totals and the
// origin-device split to score a layout. An all-zero or all-negative
// forecast degrades to uniform routing.
func SynthRoutingInto(m *trace.RoutingMatrix, loads []float64, perDevice int) error {
	e := len(loads)
	if e == 0 || m.N <= 0 || m.E != e || perDevice <= 0 {
		return fmt.Errorf("forecast: bad routing shape (%d experts into %dx%d, %d per device)", e, m.N, m.E, perDevice)
	}
	total := 0.0
	for _, v := range loads {
		if v > 0 {
			total += v
		}
	}
	p := make([]float64, e)
	if total == 0 {
		for j := range p {
			p[j] = 1 / float64(e)
		}
	} else {
		for j, v := range loads {
			if v > 0 {
				p[j] = v / total
			}
		}
	}
	row := trace.Apportion(p, perDevice)
	for i := range m.R {
		copy(m.R[i], row)
	}
	return nil
}

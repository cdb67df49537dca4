package forecast

import (
	"fmt"

	"laermoe/internal/trace"
)

// SynthRouting converts a forecast per-expert load vector into the routing
// matrix shape the planner solves from: every device splits its perDevice
// assignments across experts proportionally to the (non-negative part of
// the) forecast, with exact row sums via deterministic largest-remainder
// rounding. Devices get identical rows — the forecast carries no
// per-device information, and the planner's cost model only needs the
// column totals and the origin-device split to score a layout. An all-zero
// or all-negative forecast degrades to uniform routing.
func SynthRouting(loads []float64, devices, perDevice int) (*trace.RoutingMatrix, error) {
	e := len(loads)
	if e == 0 || devices <= 0 || perDevice <= 0 {
		return nil, fmt.Errorf("forecast: bad routing shape (%d experts, %d devices, %d per device)", e, devices, perDevice)
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
	m := trace.NewRoutingMatrix(devices, e)
	for i := 0; i < devices; i++ {
		copy(m.R[i], row)
	}
	return m, nil
}

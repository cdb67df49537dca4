package trace

import "sync"

// ScoreBalanceBlend is the default strength of score-distribution
// balancing: each device's routing distribution is pulled halfway toward
// uniform before apportionment. Fixed rather than configurable — the
// score-balance policy is a published-baseline reproduction, not a tuning
// surface ("From Score Distributions to Balance").
const ScoreBalanceBlend = 0.5

// balanceScratch pools the per-row float/remainder working set of
// ScoreBalanceInto so the dispatch hot path stays allocation-free in
// steady state.
type balanceScratch struct {
	p   []float64
	rem remScratch
}

var balancePool = sync.Pool{New: func() interface{} { return new(balanceScratch) }}

func (sc *balanceScratch) resize(e int) {
	if cap(sc.p) < e {
		sc.p = make([]float64, e)
	}
	sc.p = sc.p[:e]
}

// ScoreBalanceInto reshapes a routing matrix toward balance: every
// device's empirical routing distribution p is blended with the uniform
// distribution, q = (1-blend)*p + blend/E, and the device's exact token
// total is re-apportioned under q (largest-remainder, deterministic). Row
// sums are preserved exactly — the router moves tokens between experts,
// never creates or drops them — so the result is a valid routing matrix
// for the same traffic. blend = 0 is the identity (up to re-apportioning
// rounding), blend = 1 routes uniformly.
//
// dst is reused when it has the right shape (allocated otherwise) and may
// alias src; the reshaped matrix is returned.
func ScoreBalanceInto(dst, src *RoutingMatrix, blend float64) *RoutingMatrix {
	if dst == nil || dst.N != src.N || dst.E != src.E {
		dst = NewRoutingMatrix(src.N, src.E)
	}
	e := src.E
	uniform := blend / float64(e)
	sc := balancePool.Get().(*balanceScratch)
	sc.resize(e)
	for i := 0; i < src.N; i++ {
		row := src.R[i]
		total := 0
		for _, v := range row {
			total += v
		}
		if total == 0 {
			for j := range dst.R[i] {
				dst.R[i][j] = 0
			}
			continue
		}
		inv := (1 - blend) / float64(total)
		for j, v := range row {
			sc.p[j] = float64(v)*inv + uniform
		}
		apportionInto(dst.R[i], sc.p, total, &sc.rem)
	}
	balancePool.Put(sc)
	return dst
}

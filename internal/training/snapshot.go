package training

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// StateDigest returns a stable 64-bit FNV-1a digest of the planner's
// decision-relevant state: the per-layer layouts in force, their
// reference (planned) loads, the predictive policy's error/trust state,
// the pending fault accounting and the topology availability mask. Two
// planners built from the same configuration that have absorbed the same
// observation and fault sequence produce identical digests — at any
// Parallelism, on any shared Pool, and across processes (FNV is
// seed-free, unlike hash/maphash).
//
// This is the snapshot hook behind laer-serve's journal checkpoints: a
// restarted daemon replays a session's journal and re-derives the digest
// at each snapshot record, turning silent replay divergence (a corrupted
// journal, a code change that moved a decision) into a loud boot-time
// failure. The digest deliberately does not serialize solver scratch or
// forecaster history — those influence *future* decisions, which the
// journal verifies record by record instead.
func (p *OnlinePlanner) StateDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) { binary.LittleEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
	i64 := func(v int) { u64(uint64(int64(v))) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }

	i64(p.layers)
	i64(p.n)
	for d := 0; d < p.n; d++ {
		if p.topo.Available(d) {
			u64(1)
		} else {
			u64(0)
		}
	}
	for l := range p.state {
		s := &p.state[l]
		lay := s.plan.Layout()
		i64(lay.E)
		i64(lay.N)
		for j := range lay.A {
			for _, v := range lay.A[j] {
				i64(v)
			}
		}
		planned := s.plan.PlannedLoads()
		i64(len(planned))
		for _, v := range planned {
			f64(v)
		}
		i64(s.faultMoves)
		i64(s.faultRestored)
		f64(s.faultTime)
	}
	if p.pred {
		for l := range p.state {
			f64(p.state[l].lastErr)
			i64(p.state[l].streak)
		}
	}
	i64(p.faultEvents)
	if p.staticRestored {
		u64(1)
	}
	return h.Sum64()
}

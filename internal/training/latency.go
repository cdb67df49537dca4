package training

import (
	"laermoe/internal/costmodel"
	"laermoe/internal/executor"
	"laermoe/internal/model"
	"laermoe/internal/stats"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// latencyMeter turns one iteration's dispatch plans plus the request
// batch that produced them into per-request decode latencies — the
// inference workload's objective.
//
// The queueing/service model: each device drains the expert tokens
// dispatched to it this iteration at its modeled expert-compute rate
// (costmodel.ExpertComputeTime over the dispatch's received loads), so a
// (source, expert) token block completes when the slowest device it was
// dispatched to finishes draining. A request clears a layer when the
// slowest of its k chosen experts' blocks completes, and its decode
// latency is the sum of those per-layer completion times. Balanced
// dispatches drain everywhere at once; a hot device queues every request
// routed through it — exactly the tail the p99 column surfaces.
type latencyMeter struct {
	cm *costmodel.Model

	drain  []float64 // per device: this layer's queue-drain time
	edelay []float64 // per (src, expert): slowest destination drain

	epoch []float64 // request latencies of the current epoch
	all   []float64 // request latencies of the whole run
}

func newLatencyMeter(arch *model.Config, topo *topology.Topology, contextLen int) *latencyMeter {
	return &latencyMeter{cm: costmodel.New(arch, topo, contextLen)}
}

// record accumulates one iteration's request latencies. Serial and
// deterministic: batch and plans are already fixed, so the result is
// independent of the run's Parallelism.
func (m *latencyMeter) record(batch *trace.RequestBatch, plans []executor.LayerPlan) {
	total := batch.Requests()
	if total == 0 {
		return
	}
	base := len(m.epoch)
	for i := 0; i < total; i++ {
		m.epoch = append(m.epoch, 0)
	}
	// acc[r] is request r's accumulated decode latency this iteration,
	// indexed by the batch's global request index.
	acc := m.epoch[base:]

	n := len(batch.PerDevice)
	for l := range plans {
		d := plans[l].Dispatch
		if d == nil {
			continue
		}
		if d.Traffic() {
			panic("training: the latency meter reads single assignments, not a traffic-form dispatch")
		}
		if cap(m.drain) < n {
			m.drain = make([]float64, n)
		}
		m.drain = m.drain[:n]
		for dev, load := range d.Loads() {
			m.drain[dev] = m.cm.ExpertComputeTime(dev, load)
		}
		if need := n * d.E; cap(m.edelay) < need {
			m.edelay = make([]float64, need)
		}
		m.edelay = m.edelay[:n*d.E]
		for i := range m.edelay {
			m.edelay[i] = 0
		}
		// A block's completion is the slowest destination it spans. With
		// reshaping policies (score-balance) the dispatch may not cover a
		// request's original expert choice; those cells keep the device's
		// own drain as a floor below.
		for _, a := range d.Assignments {
			if t := m.drain[a.Dst]; t > m.edelay[a.Src*d.E+a.Expert] {
				m.edelay[a.Src*d.E+a.Expert] = t
			}
		}
		K := batch.TopK
		choices := batch.Choices[l]
		for dev := 0; dev < n; dev++ {
			// Unset cells (expert dispatched elsewhere by a reshaping
			// policy) floor at the source device's own drain time: the
			// request still waits out its device's queue.
			floor := m.drain[dev]
			lo, hi := batch.Offsets[dev], batch.Offsets[dev+1]
			for r := lo; r < hi; r++ {
				worst := 0.0
				cbase := r * K
				for k := 0; k < K; k++ {
					t := m.edelay[dev*d.E+int(choices[cbase+k])]
					if t == 0 {
						t = floor
					}
					if t > worst {
						worst = t
					}
				}
				acc[r] += worst
			}
		}
	}
}

// epochPercentiles returns the p50/p99 decode latency of the requests
// recorded since the last call, folds them into the run totals and resets
// the epoch window.
func (m *latencyMeter) epochPercentiles() (p50, p99 float64) {
	if len(m.epoch) == 0 {
		return 0, 0
	}
	p50 = stats.Percentile(m.epoch, 50)
	p99 = stats.Percentile(m.epoch, 99)
	m.all = append(m.all, m.epoch...)
	m.epoch = m.epoch[:0]
	return p50, p99
}

// runPercentiles returns the p50/p99 decode latency over every request of
// the run.
func (m *latencyMeter) runPercentiles() (p50, p99 float64) {
	if len(m.all) == 0 {
		return 0, 0
	}
	return stats.Percentile(m.all, 50), stats.Percentile(m.all, 99)
}
